"""Adapted frames for structures of maximal rank, read off one operator.

Both normal forms of the classifier start from a g-symmetric operator M
whose kernel is the line R xi: psi^2 for anti-quasi-Sasakian structures,
A = phi psi for quasi-Sasakian ones.  :func:`eigen_orbits` eigendecomposes
M once, through ``MatOver.eigenspaces`` (exact, or the generalized float
problem with tolerance clustering), and splits each eigenspace into
g-orthogonal orbits: (v, Av, phi v, psi v) for psi^2, (v, phi v) for A.

For psi^2 the eigenvalues are -w_i^2 and normalizing

    e_{n+i} = (1/w_i) A e_i,  e_{2n+i} = phi e_i,  e_{3n+i} = (1/w_i) psi e_i

produces the orthonormal frame {xi, e_i, e_{n+i}, e_{2n+i}, e_{3n+i}}.  The
frame is kept factored as T = R Delta^-1: the columns of R are the
unnormalized quadruples, in the input's field (rational for rational
inputs), and Delta = diag(1, |v|, w|v|, ...) holds their g-lengths, the
square roots, beside their rational squares q = (1, v^T g v, w^2 v^T g v,
...).  :func:`adapted_frame` certifies exact frames by the Gram check
R^T g R = diag(q) in the input's field; the classifier, by its isomorphism.

Determinism: eigenvalues are processed by descending |eigenvalue|, ties in
ascending order, and the pivot inside an eigenspace is the first
reduced-echelon kernel vector orthogonal to the orbits chosen so far
(lexicographically least free column); this is a repository convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .acm import (
    CLASS_ANTI_QUASI_SASAKIAN,
    AcmStructure,
    certificate_failure,
    classify_structure,
    numerator_view,
    operators_A_psi,
    structure_rank,
)
from .errors import (
    InternalContradiction,
    IrrationalSpectrum,
    NotAqs,
    NotMaximalRank,
    NotQs,
)
from .linalg import (
    Mat,
    MatOver,
    Vec,
    bilinear,
    dot,
    mat_mul,
    mat_vec,
    mat_vecs,
    nullspace,
    transpose,
    vec_scale,
)
from .scalars import (
    s_div,
    s_is_zero,
    s_mul,
    s_neg,
    s_sign,
    s_sqrt,
    s_sub,
    units,
)


def require_maximal(S: AcmStructure, tag: str) -> None:
    """The gate of every normal form: S carries the class tag (NotAqs or
    NotQs otherwise) and eta has maximal rank (NotMaximalRank otherwise)."""
    if tag not in classify_structure(S).tags:
        exc = NotAqs if tag == CLASS_ANTI_QUASI_SASAKIAN else NotQs
        raise exc(f"structure is not {tag}")
    rr = structure_rank(S)
    if not rr.is_maximal:
        raise NotMaximalRank(f"rank {rr.rank} < dim {S.L.dim}")


def eigen_orbits(M: MatOver, g: MatOver, maps: list[MatOver]) -> list[tuple]:
    """[(eigenvalue, multiplicity, orbits)] of the g-symmetric operator M off
    its kernel R xi, largest |eigenvalue| first.  Each eigenspace splits into
    g-orthogonal orbits (v, M_1 v, M_2 v, ...) of the given maps, v the
    first kernel vector orthogonal to the orbits chosen before it.  M, g and
    the maps are values, divided back once, as eigenvalues and orbits leave."""
    spectrum = M.eigenspaces(g)
    kernel = sum(mult for ev, mult, _ in spectrum if s_is_zero(ev))
    if kernel != 1:
        raise NotMaximalRank(f"kernel of dimension {kernel}, not the line R xi")
    size = len(maps) + 1
    out = []
    nonzero = [entry for entry in spectrum if not s_is_zero(entry[0])]
    for ev, mult, basis in sorted(nonzero, key=lambda entry: -abs(entry[0])):
        if mult % size:
            raise InternalContradiction(
                f"eigenvalue {ev} has multiplicity {mult}, not divisible by {size}"
            )
        orbits: list[tuple] = []
        for _ in range(mult // size):
            v = _orthogonal_pivot(basis, [x for orbit in orbits for x in orbit], g.N)
            orbits.append((v, *(m.on_rows(MatOver.of([v])).mat()[0] for m in maps)))
        out.append((ev, mult, orbits))
    return out


def _psi2_orbits(S: AcmStructure) -> list:
    """eigen_orbits of psi^2 with the quadruples (v, Av, phi v, psi v)."""
    pack = operators_A_psi(S)
    if not pack.ok:  # exact residuals are a verdict, float ones a precision limit
        if not S.L.floats:
            raise NotAqs("operator identities fail; structure is not aqS")
        name, worst = max(pack.residuals.items(),  # an inf or a nan is the worst
                          key=lambda item: (not math.isfinite(item[1]), item[1]))
        raise certificate_failure(f"operator identity {name}", [worst])
    (A, psi), v = pack.operators, numerator_view(S)
    spectrum = eigen_orbits(psi @ psi, v.g, [A, v.phi, psi])
    for ev, _, _ in spectrum:
        if s_sign(ev) > 0:
            raise InternalContradiction(f"psi^2 has positive eigenvalue {ev}")
    return spectrum


@dataclass(frozen=True)
class AdaptedFrame:
    n: int  # number of quadruples; dim = 4n + 1
    weights: tuple  # w_1 >= w_2 >= ... > 0
    # T = R Delta^-1: the columns of R in the input's field, ordered (xi, e_1..e_n,
    # e_{n+1}..e_{2n}, ...), their g-lengths, the diagonal of Delta (1 for xi, then
    # |v| or w |v|), and the squares of those, rational on exact input
    unscaled: tuple
    lengths: tuple
    squares: tuple

    @property
    def scales(self) -> tuple:  # the diagonal of Delta^-1, in the field of xi's length 1
        return tuple(s_div(self.lengths[0], x) for x in self.lengths)

    def columns(self) -> list[Vec]:
        """The frame vectors, the columns of T."""
        return [vec_scale(c, x) for c, x in zip(self.unscaled, self.scales)]


def adapted_frame(S: AcmStructure) -> AdaptedFrame:
    """Orthonormal adapted frame of an aqS structure of maximal rank."""
    require_maximal(S, CLASS_ANTI_QUASI_SASAKIAN)
    frame, g, (zero, one) = _frame(S, _psi2_orbits(S)), S.g_mat(), units(S.L.floats)
    # certificate: the frame is g-orthonormal; exact frames check the Gram
    # matrix of R instead, R^T g R = diag(squares), all in the input's field
    gram_cols, want = ((frame.unscaled, frame.squares) if not S.L.floats
                       else (frame.columns(), [one] * len(frame.lengths)))
    gram = mat_mul(gram_cols, transpose(mat_vecs(g, gram_cols)))
    for a in range(len(want)):
        for b in range(a, len(want)):
            residual = s_sub(gram[a][b], want[a] if a == b else zero)
            if not s_is_zero(residual):
                what = f"frame is not orthonormal at pair ({a + 1}, {b + 1})"
                raise certificate_failure(what, [residual])
    return frame


def _frame(S: AcmStructure, spectrum: list) -> AdaptedFrame:
    """The frame of the psi^2 orbits, unchecked (adapted_frame checks its Gram matrix)."""
    quadruples: list[tuple[Vec, Vec, Vec, Vec]] = []  # (v, Av, phi v, psi v)
    weights = []
    for ev, _, orbits in spectrum:
        weight_sq = s_neg(ev)
        try:
            weight = s_sqrt(weight_sq)
        except ValueError as exc:
            raise IrrationalSpectrum(f"weight^2 = {weight_sq} is not a rational square") from exc
        quadruples.extend(orbits)
        weights.extend([weight] * len(orbits))
    g, one = S.g_mat(), units(S.L.floats)[1]
    sq = [bilinear(v, g, v) for v, _, _, _ in quadruples]  # |v|^2, then |A v|^2 = w^2 |v|^2
    norms = [s_sqrt(q) for q in sq]
    lengths = norms + [s_mul(w, x) for w, x in zip(weights, norms)]
    squares = sq + [s_mul(s_mul(w, w), q) for w, q in zip(weights, sq)]
    R = [S.xi_vec()] + [quad[b] for b in range(4) for quad in quadruples]
    return AdaptedFrame(len(quadruples), tuple(weights), tuple(map(tuple, R)),
                        (one, *lengths, *lengths), (one, *squares, *squares))


def _orthogonal_pivot(eig_basis: list[Vec], chosen: list[Vec], g: Mat) -> Vec:
    """First vector of the eigenspace g-orthogonal to everything chosen
    (the reduced-echelon convention of the module docstring)."""
    if not chosen:
        return list(eig_basis[0])
    rows = []
    for c in chosen:
        gc = mat_vec(g, c)
        rows.append([dot(gc, v) for v in eig_basis])
    coeff_basis = nullspace(rows, len(eig_basis))
    if not coeff_basis:
        raise InternalContradiction("eigenspace exhausted before its multiplicity")
    return mat_vec(transpose(eig_basis), coeff_basis[0])
