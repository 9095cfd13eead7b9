"""Almost contact metric structures (phi, xi, eta, g) on a metric Lie algebra.

Defining identities: phi^2 = -I + eta (x) xi, eta(xi) = 1, and
g(phi X, phi Y) = g(X, Y) - eta(X) eta(Y).  The classification evaluates
d Phi, d eta and the Nijenhuis tensor N_phi = [phi, phi] + d eta (x) xi,
and returns every class whose defining equations hold (classes overlap).

Sign convention, fixed package-wide: d eta (X, Y) = -eta([X, Y]).

Shared formulas live here once: :func:`nijenhuis` is the Nijenhuis bracket
of any endomorphism (phi here, the complex structure J of a Kahler algebra
in ``constructors``), and :func:`psi_matrix` is psi = -nabla xi for both
the anti-quasi-Sasakian operator pack and the quasi-Sasakian classifier.

Throughout the package a check on all basis pairs is one matrix identity,
never a loop of per-pair evaluations.  2-forms and bilinear forms are
compared as Gram products: d eta(phi X, phi Y) = -d eta(X, Y) is
phi^T B phi + B = 0 here, w(JX, JY) = w(X, Y) is J^T W J = W in
``constructors`` and ``invariant_forms``, d eta = 2 Phi is the matrix of
d eta minus twice that of Phi, and the adapted frame is certified by
R^T g R = Delta^-2.  Brackets are
products of ad matrices: the Nijenhuis bracket and the Koszul solves here,
the bracket inclusions, equivariance and integrability of J on m-blocks
C_m ad_U M in ``invariant_forms``.

For a left-invariant metric the Koszul formula reads 2 g Gamma_i = g ad_i -
ad_i^T g - B_i with (B_i)_kj = g([b_j, b_k], b_i), Gamma_i b_j = nabla_{b_i} b_j
(J. Milnor, "Curvatures of left invariant metrics on Lie groups", Adv. Math.
21, 1976).  Classification reads only psi = -nabla xi, from one Koszul solve
along xi (:func:`psi_matrix`) certified by the two halves of g psi: g psi +
(g psi)^T = -L_xi g and g psi - (g psi)^T = d eta.  The whole connection is
built for curvature and for float psi, as the n matrices gamma[i] = Gamma_i
as rows, certified by Gamma_i b_j - Gamma_j b_i = [b_i, b_j] and g Gamma_i +
Gamma_i^T g = 0.  Ricci reads their numerators: Ric_ij = sum_a R(b_a, b_i)_aj
with R(b_a, b_i) = [Gamma_a, Gamma_i] - sum_k c_ai^k Gamma_k, row a only, O(n^4).

The field is decided once per structure, with three outcomes.  A rational
structure runs on its numerator view (:func:`numerator_view`, kept in the
memo): phi, g, xi, eta and the identity over one common denominator and the
basis ad matrices over theirs, as ``LieAlgebra.ad_numerators`` returns them.
The stages pass (numerators, den) pairs to each other and bring the two
sides of each identity to one denominator by integer scalings.  A tower
structure whose entries are one term each and factor over their indices has
a :func:`rational_rescaling` (``LieAlgebra.sqrt_basis``), a rational copy in
the basis sqrt(d_k) e_k: ``classify_structure``, ``structure_rank``,
``xi_killing_check``, ``curvature`` and the classifier's normal forms run on
it.  Any other structure is its own view over 1 and runs the same formulas
per scalar.  Values map back only where they leave: ``linalg.over`` for a
residual, a returned table or operator (``ConnectionTable.gamma``,
``OperatorPack.A``/``psi``, divided back on first use), a frame or an
isomorphism, and ``linalg.diag_scaled`` for the residual entries, the Ricci
tensor and F of a rescaled structure.  Which field a kernel runs in is
decided in ``linalg`` and ``lie_core``, never here.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property, reduce

from .errors import (
    AqslieError,
    DimensionMismatch,
    InternalContradiction,
    InvalidStructure,
    NotAqs,
    PreconditionError,
    ToleranceExceeded,
)
from .exterior import (
    KForm,
    bilinear_from_form,
    ce_d,
    covector_form,
    form_from_bilinear,
    rank_of_eta,
)
from .lie_core import LieAlgebra, ad_matrix_numerators, bracket
from .linalg import (
    Mat,
    Vec,
    _flat,
    bilinear,
    diag_scaled,
    dot,
    identity,
    inverse,
    is_positive_definite,
    mat_add,
    mat_eq,
    mat_mul,
    mat_scale,
    mat_sub,
    mat_vec,
    mat_vecs,
    max_abs,
    over,
    rref,
    transpose,
    vec_is_zero,
    vec_sub,
)
from .scalars import ONE, ZERO, get_tolerance, is_exact, s_abs, s_div, s_is_zero, s_lt
from .scalars import s_mul, s_neg, s_sub

CLASS_CONTACT_METRIC = "ContactMetric"
CLASS_SASAKIAN = "Sasakian"
CLASS_COKAHLER = "Cokahler"
CLASS_QUASI_SASAKIAN = "QuasiSasakian"
CLASS_ANTI_QUASI_SASAKIAN = "AntiQuasiSasakian"
CLASS_DOUBLE_AQS_SASAKIAN = "DoubleAqsSasakian"
CLASS_UNCLASSIFIED = "Unclassified"

# each class of classify_structure and the residuals that vanish on it:
# d eta = 2 Phi (contact metric), N_phi = 0 (normal), d Phi = 0, d eta = 0,
# and N_phi = 2 d eta (x) xi (anti-normal)
CLASS_RESIDUALS = {
    CLASS_CONTACT_METRIC: ("contact_metric",),
    CLASS_SASAKIAN: ("contact_metric", "n_phi"),
    CLASS_QUASI_SASAKIAN: ("d_phi", "n_phi"),
    CLASS_ANTI_QUASI_SASAKIAN: ("d_phi", "anti_normal"),
    CLASS_COKAHLER: ("d_eta", "d_phi", "n_phi"),
}


@dataclass(frozen=True, eq=False)
class AcmStructure:
    L: LieAlgebra
    phi: tuple  # N x N, column j = phi(b_j)
    xi: tuple
    eta: tuple  # covector
    g: tuple  # symmetric positive definite

    def __post_init__(self):
        # memo for the pure derived quantities (connection, classification,
        # rank, operators); invisible to equality and serialization
        object.__setattr__(self, "_memo", {})

    @staticmethod
    def make(L: LieAlgebra, phi: Mat, xi: Vec, eta: Vec, g: Mat) -> "AcmStructure":
        n = L.dim
        if len(xi) != n or len(eta) != n or len(phi) != n or len(g) != n:
            raise DimensionMismatch("tensor sizes do not match the algebra")
        return AcmStructure(
            L,
            tuple(tuple(r) for r in phi),
            tuple(xi),
            tuple(eta),
            tuple(tuple(r) for r in g),
        )

    def phi_mat(self) -> Mat:
        return [list(r) for r in self.phi]

    def g_mat(self) -> Mat:
        return [list(r) for r in self.g]

    def xi_vec(self) -> Vec:
        return list(self.xi)

    def eta_row(self) -> Vec:
        return list(self.eta)

    def eta_form(self) -> KForm:
        return covector_form(list(self.eta))


# phi, g, xi, eta and the identity ("one", whose entry 1 is den) over one
# denominator den, and the basis ad matrices over da
TensorNumerators = namedtuple("TensorNumerators", "phi g xi eta one den ads da")


def numerator_view(S: AcmStructure) -> TensorNumerators:
    """The one field decision of a structure, made by
    ``LieAlgebra.ad_numerators`` on its algebra and tensors together and kept
    in the memo: integers when all of them are rational, else every tensor as
    it is over 1.  The view is shared, so no stage may change it."""
    if "numerators" not in S._memo:
        ads, da, (phi, g, (xi,), (eta,), one), den = S.L.ad_numerators(
            S.phi_mat(), S.g_mat(), [S.xi_vec()], [S.eta_row()], identity(S.L.dim))
        S._memo["numerators"] = TensorNumerators(phi, g, xi, eta, one, den, ads, da)
    return S._memo["numerators"]


Rescaling = namedtuple("Rescaling", "S up down")  # S in the basis up_k e_k, down = 1 / up


def rescaled(S: AcmStructure, up: list, down: list) -> AcmStructure:
    """S in the basis up_k e_k, down_k = 1 / up_k: phi' = diag(down) phi diag(up),
    g' = diag(up) g diag(up), xi' = down xi, eta' = up eta; one product per entry."""
    (xi,), (eta,) = diag_scaled([S.xi], None, down), diag_scaled([S.eta], None, up)
    return AcmStructure.make(
        S.L.rescaled(up, down), diag_scaled(S.phi, down, up), xi, eta, diag_scaled(S.g, up, up))


def rational_rescaling(S: AcmStructure) -> Rescaling | None:
    """S in the basis sqrt(d_k) e_k of the square classes of its constants,
    phi, g, xi and eta (``LieAlgebra.sqrt_basis``), where it is rational; None
    when there is none.  Kept in the memo."""
    if "rescaling" not in S._memo:
        scales = S.L.sqrt_basis([S.phi, S.g], [S.xi, S.eta])
        S._memo["rescaling"] = scales and Rescaling(rescaled(S, *scales), *scales)
    return S._memo["rescaling"]


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    residuals: dict = field(default_factory=dict)  # check name -> max |residual|
    max_residual: object = ZERO
    worst_check: str = ""


def validate_acm(S: AcmStructure) -> ValidationReport:
    """Check the defining identities; failures are report entries."""
    n, v = S.L.dim, numerator_view(S)
    phi, g, xi, eta, d = v.phi, v.g, v.xi, v.eta, v.den
    one = v.one[0][0]  # 1 over d
    residuals: dict = {}

    # each residual is max |numerator| over the denominator of its terms
    target = mat_sub([[s_mul(xi[i], eta[j]) for j in range(n)] for i in range(n)],
                     mat_scale(v.one, d))
    residuals["phi_squared"] = _mat_res(mat_mul(phi, phi), target, d * d)
    residuals["eta_xi"] = _divided(s_abs(s_sub(dot(eta, xi), one * d)), d * d)
    residuals["g_symmetric"] = _mat_res(g, transpose(g), d)
    # g(phi X, phi Y) = g(X, Y) - eta(X) eta(Y): phi^T g phi = g - eta^T eta
    eta_eta = [[s_mul(eta[i], eta[j]) for j in range(n)] for i in range(n)]
    residuals["compatibility"] = _mat_res(
        mat_mul(transpose(phi), mat_mul(g, phi)),
        mat_scale(mat_sub(mat_scale(g, d), eta_eta), d), d ** 3
    )
    residuals["phi_xi"] = _divided(max_abs(mat_vec(phi, xi)), d * d)
    residuals["eta_phi"] = _divided(max_abs(mat_vec(transpose(phi), eta)), d * d)
    residuals["xi_unit"] = _divided(s_abs(s_sub(bilinear(xi, g, xi), one * d * d)), d ** 3)
    pd = is_positive_definite(g)
    residuals["g_positive_definite"] = ZERO if pd else ONE

    worst_name, worst = "", ZERO
    for name, r in residuals.items():
        if s_lt(worst, r):
            worst_name, worst = name, r
    passed = pd and _all_vanish(residuals)
    return ValidationReport(passed, residuals, worst, worst_name)


def _all_vanish(residuals: dict, names=None) -> bool:
    """Every residual, or every one named, is zero (under the float tolerance)."""
    return all(s_is_zero(residuals[name]) for name in names or residuals)


def fundamental_form(S: AcmStructure) -> KForm:
    """Phi(X, Y) = g(X, phi Y)."""
    M = mat_mul(S.g_mat(), S.phi_mat())
    try:
        return form_from_bilinear(M)
    except PreconditionError as exc:
        raise InvalidStructure("g(., phi .) is not alternating; structure invalid") from exc


def nijenhuis(L: LieAlgebra, J: Mat) -> dict:
    """Nijenhuis bracket [J, J] of an endomorphism on basis pairs, i < j:
    {(i, j): [J b_i, J b_j] + J^2 [b_i, b_j] - J [b_i, J b_j] - J [J b_i, b_j]}."""
    ads, da, (J,), dj = L.ad_numerators(J)
    N, den = _nijenhuis_columns(L, ads, da, J, dj)
    return dict(zip(_pairs(L.dim), over(transpose(N), den)))


def _pairs(n: int) -> list:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _nijenhuis_columns(L: LieAlgebra, ads: list, da: int, J: Mat, dj: int) -> tuple:
    """(N, den): [J, J] on the pairs i < j, in order, as the columns of N, for
    J and the ad_i on numerators over dj and da.  With ad_{x_i} = A_i / dx for
    x_i column i of J, M_i is over dx dj da and [M_i, J] over dx dj^2 da."""
    n = L.dim
    cols, blocks = transpose(J), []
    for i in range(n):
        # column j of [M_i, J], M_i = ad_{J b_i} - J ad_i, is the pair (i, j);
        # only the columns j > i are formed
        A, dx = ad_matrix_numerators(L, cols[i])
        M = mat_sub(mat_scale(A, da), mat_scale(mat_mul(J, ads[i]), dx))
        J_right, M_right = ([row[i + 1:] for row in X] for X in (J, M))
        blocks.append((mat_sub(mat_mul(M, J_right), mat_mul(J, M_right)), dx))
    # every dx is the same unless J mixes kinds; their product is over all
    common = math.prod({dx for _, dx in blocks})
    scaled = [mat_scale(B, common // dx) for B, dx in blocks]
    return [sum((B[k] for B in scaled), []) for k in range(n)], common * dj * dj * da


def nijenhuis_phi(S: AcmStructure) -> dict:
    """Nijenhuis torsion [phi, phi] on basis pairs: {(i, j): vector}, i < j."""
    return nijenhuis(S.L, S.phi_mat())


@dataclass(frozen=True)
class StructureClass:
    tags: frozenset
    residuals: dict = field(default_factory=dict)

    def has(self, tag: str) -> bool:
        return tag in self.tags


def classify_structure(S: AcmStructure) -> StructureClass:
    """All satisfied class tags among contact metric / Sasakian / cokahler /
    quasi-Sasakian / anti-quasi-Sasakian, each read from the residuals that
    CLASS_RESIDUALS names for it.  With a rational rescaling the work runs on
    it, each residual entry is mapped back, and both memos keep the result."""
    if "classification" in S._memo:
        return S._memo["classification"]
    r = rational_rescaling(S)
    T = S if r is None else r.S
    if not validate_acm(T).passed:  # the worst check is named in the input basis
        raise InvalidStructure(
            f"not an almost contact metric structure (worst: {validate_acm(S).worst_check})"
        )
    Phi = fundamental_form(T)
    dPhi, deta = ce_d(T.L, Phi), ce_d(T.L, T.eta_form())
    T._memo["d_eta"] = deta_mat = bilinear_from_form(deta)
    v = numerator_view(T)
    nij, dn = _nijenhuis_columns(T.L, v.ads, v.da, v.phi, v.den)
    (B, W), db = T.L.numerators(deta_mat, bilinear_from_form(Phi))

    # basis pairs as columns: N_phi = [phi, phi] + d eta (x) xi, over dn d db
    pairs = _pairs(T.L.dim)
    xi_col, deta_pairs = [[x] for x in v.xi], [[B[i][j] for i, j in pairs]]
    n_phi = mat_add(mat_scale(nij, v.den * db), mat_scale(mat_mul(xi_col, deta_pairs), dn))
    anti = mat_sub(n_phi, mat_scale(mat_mul(xi_col, mat_scale(deta_pairs, 2)), dn))
    forms, contact = [[c for _, c in w.coeffs] for w in (dPhi, deta)], mat_sub(B, mat_scale(W, 2))
    if r is not None:  # the residuals are read in the input's basis: each entry maps back
        down = r.down
        by_pair = [down[i] * down[j] for i, j in pairs]
        n_phi, anti = diag_scaled(n_phi, r.up, by_pair), diag_scaled(anti, r.up, by_pair)
        forms = [[c * math.prod(map(down.__getitem__, I)) for I, c in w.coeffs]
                 for w in (dPhi, deta)]
        contact = diag_scaled(contact, down, down)
        S._memo["d_eta"] = diag_scaled(deta_mat, down, down)
    den = dn * v.den * db
    residuals = {
        "d_phi": max_abs(forms[0]),
        "d_eta": max_abs(forms[1]),
        "n_phi": _divided(max_abs(_flat(n_phi)), den),
        "anti_normal": _divided(max_abs(_flat(anti)), den),
        "contact_metric": _divided(max_abs(_flat(contact)), db),
    }
    tags = {tag for tag, names in CLASS_RESIDUALS.items() if _all_vanish(residuals, names)}
    result = StructureClass(frozenset(tags or {CLASS_UNCLASSIFIED}), residuals)
    S._memo["classification"] = T._memo["classification"] = result
    return result


def xi_killing_check(S: AcmStructure) -> bool:
    """g([xi, X], Y) + g(X, [xi, Y]) = 0 on all basis pairs, i.e.
    g ad_xi + (g ad_xi)^T = 0, on numerators; the verdict is kept in the memo,
    an exception is raised again on every call.  Invariant: read on the
    rational rescaling when there is one."""
    if r := rational_rescaling(S):
        return xi_killing_check(r.S)
    if "xi_killing" not in S._memo:
        ad_xi, M = _g_ad_xi(S)
        killing = vec_is_zero(_flat(mat_add(M, transpose(M))))
        # consequence: d eta (xi, .) = 0, i.e. eta([xi, .]) = 0
        if killing and not vec_is_zero(mat_vec(transpose(ad_xi), numerator_view(S).eta)):
            raise InternalContradiction("Killing xi with d eta(xi,.) != 0")
        S._memo["xi_killing"] = killing
    return S._memo["xi_killing"]


def _g_ad_xi(S: AcmStructure) -> tuple[Mat, Mat]:
    """(ad_xi, g ad_xi) on the numerator view, kept for the Killing check and psi."""
    if "g_ad_xi" not in S._memo:
        ad_xi = ad_matrix_numerators(S.L, numerator_view(S).xi)[0]
        S._memo["g_ad_xi"] = ad_xi, mat_mul(numerator_view(S).g, ad_xi)
    return S._memo["g_ad_xi"]


@dataclass(frozen=True)
class ConnectionTable:
    numerators: tuple  # Gamma_i as rows over den; its column j is nabla_{b_i} b_j
    den: int
    # gamma[i] = Gamma_i as rows, divided back on first use
    gamma = cached_property(lambda self: tuple(
        tuple(map(tuple, over(G, self.den))) for G in self.numerators))

    def nabla(self, X: Vec, Y: Vec) -> Vec:
        """nabla_X Y = sum of (X_i Y_j) Gamma_i b_j over the pairs (i, j) in order,
        skipping near-zero X_i and Y_j."""
        pairs = [(i, j) for i in range(len(X)) if not s_is_zero(X[i])
                 for j in range(len(Y)) if not s_is_zero(Y[j])]
        if not pairs:
            return [ZERO] * len(X)
        coeffs = [[s_mul(X[i], Y[j]) for i, j in pairs]]
        columns = [[row[j] for row in self.gamma[i]] for i, j in pairs]
        return mat_mul(coeffs, columns)[0]


def levi_civita(S: AcmStructure) -> ConnectionTable:
    """The Koszul formula in matrix form (see the module docstring), on the
    numerator view (g over d, the ad_i over da) and g^-1 / 2 on the algebra's
    field over dh: g ad_i and the Koszul sums are over d da, Gamma_i over
    dh d da.  The n Koszul matrices are solved by g^-1 / 2 in one
    mat_vecs call on their n^2 columns.  The table keeps those numerators,
    and the certificates read them in whole-table passes: torsion on the
    pairs i < j, metric compatibility from one product of g with all n^2
    columns.  Each output entry keeps its own fold, so the batching moves no
    float bit."""
    if "connection" in S._memo:
        return S._memo["connection"]
    L, v = S.L, numerator_view(S)
    n, g, ads, da = L.dim, v.g, v.ads, v.da
    _metric_preconditions(g)
    g_inv = S._memo["g_inverse"] = inverse(S.g_mat())  # the scalar curvature reads it
    (half_g_inv,), dh = L.numerators(mat_scale(g_inv, ONE / 2))
    gads = [mat_mul(g, ad) for ad in ads]  # gads[i][k][j] = g([b_i, b_j], b_k)
    koszul = []  # the columns of every Koszul matrix, block i after block i - 1
    for i in range(n):
        # entry (k, j) in the historical float order:
        # (g([b_i,b_j],b_k) - g([b_j,b_k],b_i)) + g([b_k,b_i],b_j)
        B = [[gads[j][i][k] for j in range(n)] for k in range(n)]
        C = [[gads[k][j][i] for j in range(n)] for k in range(n)]  # = -ad_i^T g
        koszul += transpose(mat_add(mat_sub(gads[i], B), C))
    # each n^3 list is dropped once used: kept to the end, they raise the peak
    # heap by half
    del gads
    solved = mat_vecs(half_g_inv, koszul)  # column j of Gamma_i at i n + j
    del koszul
    table = ConnectionTable(tuple(tuple(map(tuple, transpose(solved[i * n:i * n + n])))
                                  for i in range(n)), dh * v.den * da)
    del solved
    # certify what the table holds: Gamma_i b_j - Gamma_j b_i = [b_i, b_j],
    # scaled by da dG, and g Gamma_i + Gamma_i^T g = 0
    gamma, dG = table.numerators, table.den
    cols = [c for G in gamma for c in transpose(G)]  # Gamma_i b_j at i n + j
    pairs = _pairs(n)
    swapped = mat_sub([cols[i * n + j] for i, j in pairs], [cols[j * n + i] for i, j in pairs])
    brackets = [[ads[i][k][j] for k in range(n)] for i, j in pairs]  # [b_i, b_j]
    for t in mat_sub(mat_scale(swapped, da), mat_scale(brackets, dG)):
        if not vec_is_zero(t):
            raise certificate_failure("Koszul solve lost torsion-freeness", t)
    g_cols = mat_vecs(g, cols)  # column j of g Gamma_i at i n + j
    for i in range(n):
        block = g_cols[i * n:i * n + n]
        for c in mat_add(block, transpose(block)):  # column j of g Gamma_i + Gamma_i^T g
            if not vec_is_zero(c):
                raise certificate_failure("Koszul solve lost metric compatibility", c)
    S._memo["connection"] = table
    return table


def _metric_preconditions(g: Mat) -> None:
    """What both Koszul solves require of the view's metric g."""
    if not mat_eq(g, transpose(g)):
        raise PreconditionError("metric is not symmetric")
    if not is_positive_definite(g):
        raise PreconditionError("metric is not positive definite")


def certificate_failure(what: str, residuals) -> AqslieError:
    """The error for a failed certificate, given its residual entries: a
    contradiction in exact arithmetic, a precision limit of the input when
    the residuals are floats (rounding exceeded the absolute tolerance)."""
    worst = max_abs(residuals)
    if isinstance(worst, float):
        return ToleranceExceeded(
            f"{what} at float precision: residual {worst:.3g} exceeds the absolute "
            f"tolerance {get_tolerance():g}; rerun with a larger --tolerance or in "
            f"exact mode"
        )
    return InternalContradiction(what)


@dataclass(frozen=True)
class OperatorPack:
    numerators: tuple  # (A, psi) over den: A = phi psi = -phi o nabla xi, psi = -nabla xi
    den: int
    ok: bool
    residuals: dict
    # A and psi divided back on first use
    A = cached_property(lambda self: tuple(map(tuple, over(self.numerators[0], self.den))))
    psi = cached_property(lambda self: tuple(map(tuple, over(self.numerators[1], self.den))))


def psi_matrix(S: AcmStructure) -> tuple[Mat, int]:
    """(N, den) with psi = -nabla xi = N / den, column j = -nabla_{b_j} xi, read
    off the connection table for a float view.  An exact view solves 2 g nabla xi
    = K = -(G + G^T) + E, G = g ad_xi, E_kj = eta([b_k, b_j]), by one elimination
    g psi = -K / 2, and certifies g psi + (g psi)^T = G + G^T = -L_xi g and
    g psi - (g psi)^T = d eta, the latter as ce_d gives it."""
    v = numerator_view(S)
    if not is_exact(v.g[0][0]):
        conn = levi_civita(S)
        return (transpose([[s_neg(x) for x in mat_vec(G, v.xi)] for G in conn.numerators]),
                conn.den * v.den)
    L, n, d, da = S.L, S.L.dim, v.den, v.da
    _metric_preconditions(v.g)
    # G and -K over d^2 da (ad_xi of the numerators v.xi is over da d); E over d da
    G = _g_ad_xi(S)[1]
    sym = mat_add(G, transpose(G))
    E = mat_vec([col for ad in v.ads for col in transpose(ad)], v.eta)  # E_kj at k n + j
    minus_K = mat_sub(sym, mat_scale([E[k * n:k * n + n] for k in range(n)], d))
    R, _ = rref([row + rhs for row, rhs in zip(v.g, minus_K)])
    (psi,), dr = L.numerators([row[n:] for row in R])  # v.g^-1 (-K) = 2 d da psi
    den = 2 * d * da * dr
    (B,), db = L.numerators(S._memo.get("d_eta") or bilinear_from_form(ce_d(L, S.eta_form())))
    P = mat_mul(v.g, psi)  # g psi over d den
    sym_t = mat_sub(mat_scale(mat_add(P, transpose(P)), d * da), mat_scale(sym, den))
    skew_t = mat_sub(mat_scale(mat_sub(P, transpose(P)), db), mat_scale(B, d * den))
    for part, t in (("symmetric part -L_xi g", sym_t), ("skew part d eta", skew_t)):
        if not vec_is_zero(_flat(t)):
            raise certificate_failure(f"Koszul solve along xi: g psi lost its {part}", _flat(t))
    return psi, den


def operators_A_psi(S: AcmStructure) -> OperatorPack:
    """Operators A = -phi o nabla xi and psi = -nabla xi (:func:`psi_matrix`),
    with the identity suite (A phi = psi = -phi A, phi psi = A = -psi phi,
    psi A = -phi A^2 = -A psi, A xi = psi xi = 0, skew-symmetry) asserted, not
    assumed.  On numerators: phi over d and psi over p make A over d p, and
    each residual is divided by the denominator of its terms."""
    if "operators" in S._memo:
        return S._memo["operators"]
    v = numerator_view(S)
    phi, g, xi, eta, d = v.phi, v.g, v.xi, v.eta, v.den
    psi, p = psi_matrix(S)
    A = mat_mul(phi, psi)
    residuals = {}
    residuals["A_phi_eq_psi"] = _mat_res(mat_mul(A, phi), mat_scale(psi, d * d), d * d * p)
    residuals["phi_A_eq_minus_psi"] = _mat_res(
        mat_mul(phi, A), mat_scale(psi, d * d), d * d * p, mat_add)
    residuals["psi_phi_eq_minus_A"] = _mat_res(mat_mul(psi, phi), A, d * p, mat_add)
    psiA = mat_mul(psi, A)
    residuals["psi_A_anticommute"] = _mat_res(psiA, mat_mul(A, psi), d * p * p, mat_add)
    residuals["psi_A_eq_minus_phi_A2"] = _mat_res(
        mat_scale(psiA, d * d), mat_mul(phi, mat_mul(A, A)), d ** 3 * p * p, mat_add)
    residuals["A_xi"] = _divided(max_abs(mat_vec(A, xi)), d * d * p)
    residuals["psi_xi"] = _divided(max_abs(mat_vec(psi, xi)), d * p)
    residuals["eta_A"] = _divided(max_abs(mat_vec(transpose(A), eta)), d * d * p)
    residuals["eta_psi"] = _divided(max_abs(mat_vec(transpose(psi), eta)), d * p)
    gA = mat_mul(g, A)
    gpsi = mat_mul(g, psi)
    residuals["A_skew"] = _mat_res(transpose(gA), gA, d * d * p, mat_add)
    residuals["psi_skew"] = _mat_res(transpose(gpsi), gpsi, d * p, mat_add)
    ok = _all_vanish(residuals)
    pack = OperatorPack((A, mat_scale(psi, d)), d * p, ok, residuals)
    S._memo["operators"] = pack
    return pack


def _mat_res(A: Mat, B: Mat, den: int = 1, op=mat_sub):
    """max |A - B| / den, or max |A + B| / den (the residual of A = -B) with
    op=mat_add: A and B are numerators over den."""
    return _divided(max_abs(_flat(op(A, B))), den)


def _divided(x, den: int):
    """The scalar x / den: one Fraction for a rational or int x, else x itself
    when den is 1, as it is for float and tower input."""
    return over([[x]], den)[0][0]


@dataclass(frozen=True)
class ClosednessReport:
    ok: bool
    residuals: dict
    witness: tuple | None  # offending basis pair for the anti-invariance check


def closedness_suite(S: AcmStructure) -> ClosednessReport:
    """For an anti-quasi-Sasakian structure: d(g(.,A.)) = 0, d Phi = 0,
    d eta = 2 g(., psi .), and d eta(phi X, phi Y) = -d eta(X, Y).  The forms
    g(., A .) and g(., psi .) are read as zero when the operator identities
    fail (they need not be alternating then)."""
    cls = classify_structure(S)
    if CLASS_ANTI_QUASI_SASAKIAN not in cls.tags:
        raise NotAqs("closedness suite requires an anti-quasi-Sasakian structure")
    L, g = S.L, S.g_mat()
    pack = operators_A_psi(S)
    a_form, psi_form = (
        form_from_bilinear(mat_mul(g, [list(r) for r in X])) if pack.ok else KForm.make(2, L.dim)
        for X in (pack.A, pack.psi)
    )
    residuals = {}
    residuals["dA"] = max_abs(c for _, c in ce_d(L, a_form).coeffs)
    residuals["dPhi"] = cls.residuals["d_phi"]
    B, phi = S._memo["d_eta"], S.phi_mat()  # d eta, as classify_structure built it
    residuals["deta_eq_2Psi"] = _mat_res(B, mat_scale(bilinear_from_form(psi_form), 2))
    if not pack.ok:
        residuals["operator_identities"] = ONE
    # d eta(phi X, phi Y) + d eta(X, Y) on basis pairs: phi^T B phi + B
    anti = mat_add(mat_mul(transpose(phi), mat_mul(B, phi)), B)
    pairs = [(i, j) for i in range(L.dim) for j in range(i + 1, L.dim)]
    witness = next(((i, j) for i, j in pairs if not s_is_zero(anti[i][j])), None)
    residuals["deta_anti_invariance"] = max_abs(anti[i][j] for i, j in pairs)
    ok = _all_vanish(residuals)
    return ClosednessReport(ok, residuals, witness)


@dataclass(frozen=True)
class CurvatureData:
    connection: ConnectionTable  # of the rational rescaling, when there is one
    ricci: tuple
    scalar: object


def curvature(S: AcmStructure) -> CurvatureData:
    """Ricci tensor and scalar curvature: Ric_ij = sum over a of entry (a, j) of
    R(b_a, b_i) = [Gamma_a, Gamma_i] - sum_k c_ai^k Gamma_k, row a only, on the
    numerators of the table and the ad matrices, divided back once.  The rows a
    of every Gamma_a Gamma_i are one mat_vecs call (the n rows Gamma_a[a]
    against the n^2 columns of the Gamma_i); Gamma_i Gamma_a and the bracket
    term take one call per a, and the terms are summed over a in order, so
    float entries keep their bits.  With a rational rescaling it runs there and
    Ric_ij = Ric'_ij down_i down_j; the scalar curvature is invariant."""
    if r := rational_rescaling(S):
        data = curvature(r.S)
        return CurvatureData(data.connection, tuple(map(tuple, diag_scaled(
            data.ricci, r.down, r.down))), data.scalar)
    conn, L = levi_civita(S), S.L
    gamma, dG, n = conn.numerators, conn.den, L.dim
    ads, da, _, _ = L.ad_numerators()
    # lefts[a][i n + j] = (Gamma_a Gamma_i)_aj
    lefts = transpose(mat_vecs([G[a] for a, G in enumerate(gamma)],
                               [c for G in gamma for c in transpose(G)]))
    terms = []
    for a in range(n):
        rows = [G[a] for G in gamma]  # rows[k] = row a of Gamma_k
        left = [lefts[a][i * n:i * n + n] for i in range(n)]
        # (Gamma_i Gamma_a)_a, one mat_vecs call on the columns of Gamma_a
        right = transpose(mat_vecs(rows, transpose(gamma[a])))
        # row i: (sum_k c_ai^k Gamma_k)_a, with [b_a, b_i] the column i of ad_a
        brackets = mat_vecs(transpose(rows), transpose(ads[a]))
        terms.append(mat_sub(mat_scale(mat_sub(left, right), da), mat_scale(brackets, dG)))
    # summed from the first term: no float term is -0.0, so ZERO + term is term
    ricci = over(reduce(mat_add, terms), dG * dG * da)
    scal = dot(_flat(S._memo["g_inverse"]), _flat(ricci))  # as levi_civita kept it
    return CurvatureData(conn, tuple(tuple(r) for r in ricci), scal)


def sectional_curvature(S: AcmStructure, curv: CurvatureData, X: Vec, Y: Vec):
    """K(X, Y) = g(R(X,Y)Y, X) / (|X|^2 |Y|^2 - g(X,Y)^2) with
    R(X,Y)Y = nabla_X nabla_Y Y - nabla_Y nabla_X Y - nabla_[X,Y] Y.
    With a rational rescaling, curv holds its connection and X, Y map to its basis."""
    if r := rational_rescaling(S):
        X, Y = diag_scaled([X, Y], None, r.down)
        return sectional_curvature(r.S, curv, X, Y)
    g, nabla = S.g_mat(), curv.connection.nabla
    RY = vec_sub(nabla(X, nabla(Y, Y)), nabla(Y, nabla(X, Y)))
    RY = vec_sub(RY, nabla(bracket(S.L, X, Y), Y))
    num = bilinear(RY, g, X)
    den = s_sub(
        s_mul(bilinear(X, g, X), bilinear(Y, g, Y)),
        s_mul(bilinear(X, g, Y), bilinear(X, g, Y)),
    )
    if s_is_zero(den):
        raise PreconditionError("degenerate 2-plane")
    return s_div(num, den)


@dataclass(frozen=True)
class DoubleReport:
    ok: bool
    residuals: dict


def double_aqs_check(S1: AcmStructure, S2: AcmStructure, S3: AcmStructure) -> DoubleReport:
    """Double aqS-Sasakian test: shared (xi, eta, g), phi1 phi2 = phi3
    = -phi2 phi1, d Phi1 = d Phi2 = 0 and d eta = 2 Phi3, the last three read
    from the classification residuals of S1, S2 and S3."""
    residuals = {}
    residuals["shared_tensors"] = max_abs(x for b in (S2, S3) for x in vec_sub(S1.xi, b.xi)
                                          + vec_sub(S1.eta, b.eta) + _flat(mat_sub(S1.g, b.g)))
    p1, p2, p3 = S1.phi_mat(), S2.phi_mat(), S3.phi_mat()
    residuals["phi1_phi2_eq_phi3"] = _mat_res(mat_mul(p1, p2), p3)
    residuals["phi2_phi1_eq_minus_phi3"] = _mat_res(mat_mul(p2, p1), p3, op=mat_add)
    residuals["dPhi1"] = classify_structure(S1).residuals["d_phi"]
    residuals["dPhi2"] = classify_structure(S2).residuals["d_phi"]
    residuals["deta_eq_2Phi3"] = classify_structure(S3).residuals["contact_metric"]
    ok = _all_vanish(residuals)
    return DoubleReport(ok, residuals)


def conjugate_structure(S: AcmStructure, Q: Mat) -> AcmStructure:
    """Transport the algebra and all structure tensors to the basis whose
    j-th vector is column j of Q (coordinates in the old basis)."""
    L = S.L
    n = L.dim
    Q_inv = inverse(Q)
    cols = transpose(Q)
    table = {}
    for a in range(n):
        for b in range(a + 1, n):
            w = mat_vec(Q_inv, bracket(L, cols[a], cols[b]))
            coeffs = {k: w[k] for k in range(n) if not s_is_zero(w[k])}
            if coeffs:
                table[(a, b)] = coeffs
    L2 = LieAlgebra.from_brackets(
        n, table, [f"b{i+1}" for i in range(n)], L.mode, check=False
    )
    phi2 = mat_mul(Q_inv, mat_mul(S.phi_mat(), Q))
    xi2 = mat_vec(Q_inv, S.xi_vec())
    eta2 = mat_vec(transpose(Q), S.eta_row())
    g2 = mat_mul(transpose(Q), mat_mul(S.g_mat(), Q))
    return AcmStructure.make(L2, phi2, xi2, eta2, g2)


def structure_rank(S: AcmStructure):
    """Rank report of eta for this structure (invariant: read on the rational
    rescaling when there is one)."""
    if r := rational_rescaling(S):
        return structure_rank(r.S)
    if "rank" not in S._memo:
        S._memo["rank"] = rank_of_eta(S.L, S.eta_form())
    return S._memo["rank"]
