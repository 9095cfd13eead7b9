"""Constructive normal forms: nilpotent maximal-rank structures are mapped
onto weighted Heisenberg algebras with an explicit, re-verified isomorphism.

Both families are certificate first.  ``adapted.eigen_orbits`` reads a frame
off one g-symmetric operator, and the change of basis to it is the
isomorphism F onto the target that ``_verify_iso`` proves on every bracket
pair and on phi, xi, eta and g.  The target is nilpotent, of the class and of
maximal rank, with Killing xi, center R xi and [g, g] in it, so on exact
input ``_common_preconditions`` only names a failure: it runs when the
construction or the certificate raises (whose error stands if it passes).
Float input is checked first: its certificate holds only within the tolerance.

* anti-quasi-Sasakian: the adapted frame of psi^2 (quadruples
  (v, Av, phi v, psi v)) onto h^{4n+1}_w.  In frame terms the source phi
  acts by e_i -> e_{2n+i}, which is the phi_2 of the target family.
* quasi-Sasakian: pairs (v, phi v) of A = phi psi onto h^{2n+1}_w.  A
  positive eigenvalue of A forces a sign flip of e_{n+i}, which the bracket
  normal form absorbs and phi_signs records (the pushed-forward phi matches
  the target phi with those per-pair signs).

For a frame T = R Delta^-1, Delta the g-lengths of the columns of R, F = T^-1
= Delta R^-1: exact frames take R^-1 = diag(1/q) R^T g from the squares q of
the lengths and check it against the target built in the basis Delta_k e_k, where
it is rational: h^{4n+1} with weights w_r^2 q_r (Delta_r Delta_{3n+r} = Delta_{n+r}
Delta_{2n+r} = w_r q_r) or h^{2n+1} with weights w_r q_r, phi, xi and eta unchanged
and metric diag(q).  Float frames invert T.  Weights are reported positive and sorted descending.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from .acm import (
    CLASS_ANTI_QUASI_SASAKIAN,
    CLASS_QUASI_SASAKIAN,
    AcmStructure,
    _pairs,
    certificate_failure,
    numerator_view,
    psi_matrix,
    rational_rescaling,
    xi_killing_check,
)
from .adapted import _frame, adapted_frame, eigen_orbits, require_maximal
from .constructors import _rotation, weighted_heisenberg_2n1, weighted_heisenberg_4n1
from .errors import (
    CenterTooBig,
    InternalContradiction,
    NonAbelianQuotient,
    NotNilpotent,
    NotQs,
    PreconditionError,
)
from .lie_core import basis_brackets, center, lower_central_series, pair_brackets
from .linalg import (
    Mat,
    MatOver,
    _flat,
    bilinear,
    diag_scaled,
    inverse,
    transpose,
    vec_scale,
)
from .scalars import (
    s_abs,
    s_div,
    s_inv,
    s_mul,
    s_sign,
    s_sqrt,
    units,
)


@dataclass(frozen=True)
class HeisenbergIso:
    family: str  # "4n+1" or "2n+1"
    n: int
    weights: tuple  # positive, descending
    F: tuple  # source coordinates -> target coordinates
    phi_signs: tuple  # per-pair sign for the qS route; all +1 for aqS
    target_phi_index: int  # which target structure the source phi maps onto

    def F_mat(self) -> Mat:
        return [list(r) for r in self.F]


def _common_preconditions(S: AcmStructure, want_tag: str) -> None:
    if not lower_central_series(S.L).is_nilpotent:
        raise NotNilpotent("algebra is not nilpotent")
    require_maximal(S, want_tag)
    if not xi_killing_check(S):
        raise PreconditionError("xi is not a Killing vector")
    _center_and_quotient(S)


def _center_and_quotient(S: AcmStructure) -> None:
    """The center is R xi and the quotient by it is abelian: [g, g] lies in
    the center, so the (nilpotent) lower central series has at most 2 steps."""
    L = S.L
    Z = center(L)
    if Z.dim > 1:
        raise CenterTooBig(
            f"center has dimension {Z.dim}, contradicting maximal rank"
        )
    if Z.dim == 0 or not Z.contains(S.xi_vec()):
        raise InternalContradiction("center of a nilpotent algebra must be R xi here")
    if lower_central_series(L).step > 2:
        raise NonAbelianQuotient("quotient by the center is not abelian")


def _verify_iso(S: AcmStructure, target_S: AcmStructure, F: MatOver, F_inv: MatOver) -> None:
    """F must be a Lie algebra isomorphism matching all structure tensors,
    each identity checked on F, F_inv (values on S's field) and both structures."""

    def require(got: MatOver, want: MatOver, what: str) -> None:
        if not got == want:
            raise certificate_failure(what, _flat((got - want).mat()))

    v, target_L, pairs = numerator_view(S), target_S.L, _pairs(S.L.dim)
    phi_t, g_t, xi_t, eta_t = target_L.values(
        target_S.phi_mat(), target_S.g_mat(), [target_S.xi_vec()], [target_S.eta_row()])
    # row p: F [b_a, b_b] (one product) and [F b_a, F b_b]; the first failing pair is named
    pushed, rhs = (F @ basis_brackets(S.L, pairs).T).T, pair_brackets(target_L, F.T, pairs)
    for p, (a, b) in enumerate(() if pushed == rhs else pairs):
        require(pushed[p:p + 1], rhs[p:p + 1],
                f"F is not a Lie algebra morphism at pair ({a + 1}, {b + 1})")
    require(F @ (v.phi @ F_inv), phi_t, "F does not map phi onto the target structure")
    require(F.on_rows(v.xi), xi_t, "F does not map xi onto the target Reeb vector")
    require(F.T.on_rows(eta_t), v.eta, "F does not pull the target eta back to eta")
    require(F.T @ (g_t @ F), v.g, "F is not an isometry onto the target metric")


def _frame_isomorphism(S: AcmStructure, target_S: AcmStructure, columns: list,
                       lengths: list, squares: list) -> Mat:
    """F = T^-1 = D M for the frame T = R diag(1/D), the columns of R of g-lengths
    D_k with rational squares q_k, verified to be an isomorphism onto the target.
    An exact frame's target comes in the basis D_k e_k, where it is rational (its
    weights scaled by the products D_a D_b of its bracket pairs) and its metric is
    diag(q), set here; M = diag(1/q) R^T g is one product (:func:`_gram_inverse`).
    The check proves M = R^-1: M xi = xi_t is off ker eta_t, the image of M phi R =
    phi_t, so M and g = M^T diag(q) M are invertible and the isometry reads
    R diag(1/q) R^T = g^-1, that is R M = 1.  Float frames invert T itself, once, so
    float F keeps its rounding, and T goes to the check as F^-1, as R goes as M^-1."""
    if S.L.floats:
        T = transpose([vec_scale(c, s_div(1.0, x)) for c, x in zip(columns, lengths)])
        F = inverse(T)
        _verify_iso(S, target_S, *S.L.values(F, T))
        return F
    M = _gram_inverse(S, columns, squares)
    target = replace(target_S, g=tuple(map(tuple, diag_scaled(target_S.g, squares, None))))
    _verify_iso(S, target, M, S.L.values(transpose(columns))[0])
    return diag_scaled(M.mat(), lengths, None)


def _gram_inverse(S: AcmStructure, columns: list, squares: list) -> MatOver:
    """M = diag(1/q) R^T g, one product on S's field: R^-1 for a g-orthogonal R."""
    (Q,) = S.L.values(diag_scaled(columns, list(map(s_inv, squares)), None))
    return Q @ numerator_view(S).g


def _mapped_back(iso: HeisenbergIso, down: list) -> HeisenbergIso:
    """The isomorphism found on a rational rescaling, on the input's basis:
    F = F' diag(down)."""
    return replace(iso, F=tuple(map(tuple, diag_scaled(iso.F, None, down))))


def _certified(S: AcmStructure, tag: str, build) -> HeisenbergIso:
    """build(S) on S's rational rescaling if any; _common_preconditions(S, tag)
    runs before it on float input, on exact input only after it raises."""
    if r := rational_rescaling(S):
        return _mapped_back(_certified(r.S, tag, build), r.down)
    if S.L.floats:
        _common_preconditions(S, tag)
    try:
        return build(S)
    except Exception:
        if not S.L.floats:
            _common_preconditions(S, tag)
        raise


def classify_nilpotent_aqs(S: AcmStructure) -> HeisenbergIso:
    """Normal form of a nilpotent anti-quasi-Sasakian structure of maximal
    rank: an explicit isomorphism onto h^{4n+1}_w (source phi -> target
    phi_2, per the adapted-frame convention)."""
    return _certified(S, CLASS_ANTI_QUASI_SASAKIAN, _aqs_iso)


def _aqs_iso(S: AcmStructure) -> HeisenbergIso:
    """The isomorphism of the adapted frame onto h^{4n+1}_w; an exact frame is
    read off psi alone, with no identity suite or Gram check (F certifies it)."""
    if S.L.floats:
        frame = adapted_frame(S)
    else:
        v, psi = numerator_view(S), psi_matrix(S)
        frame = _frame(S, eigen_orbits(psi @ psi, v.g, [v.phi @ psi, v.phi, psi]))
    n, weights, q = frame.n, frame.weights, frame.squares
    # exact: the weights in the basis D_k e_k are w_r^2 q_r = q_{n+r} (module docstring)
    scaled = list(weights) if S.L.floats else list(q[n + 1:2 * n + 1])
    F = _frame_isomorphism(S, weighted_heisenberg_4n1(n, scaled)[1][1],
                           list(frame.unscaled), list(frame.lengths), list(q))
    return HeisenbergIso("4n+1", n, weights, tuple(map(tuple, F)), (1,) * n, 2)


def classify_nilpotent_qs(S: AcmStructure) -> HeisenbergIso:
    """Normal form of a nilpotent quasi-Sasakian structure of maximal rank:
    eigenvectors of the symmetric operator A = phi psi give pairs
    (e_i, phi e_i) and an isomorphism onto h^{2n+1}_w."""
    return _certified(S, CLASS_QUASI_SASAKIAN, _qs_iso)


def _qs_iso(S: AcmStructure) -> HeisenbergIso:
    g, view, one = S.g_mat(), numerator_view(S), units(S.L.floats)[1]
    first, second, squares, weights, signs = [], [], [], [], []
    for ev, _, orbits in eigen_orbits(operators_A_psi_qs(S), view.g, [view.phi]):
        sign = 1 if s_sign(ev) < 0 else -1  # bracket [u, phi u] = -2 ev |u|^2 xi
        for v, phv in orbits:
            first.append(v)
            second.append(phv if sign > 0 else vec_scale(phv, -1))
            squares.append(bilinear(v, g, v))
            weights.append(s_abs(ev))
            signs.append(sign)
    n = len(first)  # exact: in the basis D_k e_k, D_r D_{n+r} = q_r scales w_r
    scaled = weights if S.L.floats else [s_mul(w, q) for w, q in zip(weights, squares)]
    target_L, target_S = weighted_heisenberg_2n1(n, scaled)
    signed_phi = _rotation(2 * n + 1, [(r, n + r, s) for r, s in enumerate(signs, start=1)],
                           target_L.floats)
    signed_target = replace(target_S, phi=tuple(map(tuple, signed_phi)))
    F = _frame_isomorphism(S, signed_target, [S.xi_vec()] + first + second,
                           [one] + [s_sqrt(q) for q in squares] * 2, [one] + squares * 2)
    return HeisenbergIso("2n+1", n, tuple(weights), tuple(map(tuple, F)), tuple(signs), 1)


def operators_A_psi_qs(S: AcmStructure) -> MatOver:
    """A = phi psi for the quasi-Sasakian route; asserts g-symmetry, which
    encodes the phi-invariance of d eta."""
    v = numerator_view(S)
    A = v.phi @ psi_matrix(S)
    gA = v.g @ A
    if not gA == gA.T:
        raise NotQs("phi psi is not symmetric; d eta is not phi-invariant")
    return A
