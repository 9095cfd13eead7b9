"""Oracles, paper checks and fixture writers that only the unit tests call.

No command, acceptance criterion or benchmark reaches these, so they live
beside the tests: the exterior oracles (``evaluate``, the determinant minors
the Gram products are held against), the paper checks of the adapted
coframe, psi^2, the companion structures and the Reeb vector, the writers of
Kahler and matrix documents, the central quotient the classifier does
without (it tests [g, g] inside R xi by a rank), the 2-form Phi, the loop
over i and the four products for [J, J] that classification no longer runs
(``lie_core.nijenhuis_columns`` costs the nonzero terms), the classify
stages as they ran before they passed numerators to each other, and the
eigendecomposition through the characteristic polynomial and its rational
roots (``rational_roots``, on the squarefree part) that
``linalg.eig_sym_exact`` replaced with Krylov minimal polynomials; the signed
structure constant lookup, the sum and difference of forms, and the closed
invariant 2-forms of a reductive split from their defining equations, one row
per invariance and closedness condition, which ``invariant_closed_2forms``
reads as the kernel of the one differential; psi read off the whole
Levi-Civita table on a float view, the classification residuals of a
rescaled structure with every column scale made before any is read, the
normal forms with their preconditions checked before any frame is built, and
the frame isomorphism that inverted an exact frame by elimination before
``classifier._frame_isomorphism`` took the inverse from the Gram identity; d eta
and the basis pair brackets off the stacked ad matrices, before both were read
off the table, and the exact target rescaled entry by entry into the frame basis,
before it was built there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations
from fractions import Fraction

from aqslie.acm import CLASS_ANTI_QUASI_SASAKIAN, AcmStructure, ConnectionTable, levi_civita
from aqslie.acm import _pairs, _residual_entries, numerator_view, operators_A_psi
from aqslie.acm import CLASS_QUASI_SASAKIAN, rational_rescaling, rescaled
from aqslie.adapted import AdaptedFrame, _psi2_orbits, adapted_frame, require_maximal
from aqslie.classifier import HeisenbergIso, _common_preconditions, _mapped_back, _qs_iso
from aqslie.classifier import _verify_iso
from aqslie.constructors import _rotation, weighted_heisenberg_2n1, weighted_heisenberg_4n1
from aqslie.errors import DimensionMismatch, IrrationalSpectrum, PreconditionError
from aqslie.exterior import (
    KForm,
    bilinear_from_form,
    ce_d,
    form_from_bilinear,
    form_scale,
    one_scalar_form,
    wedge,
)
from aqslie.invariant_forms import ReductiveSplit
from aqslie.io import _matrix_to_json, algebra_to_json
from aqslie.lie_core import BracketTable, LieAlgebra, ad_matrix, ad_value, bracket
from aqslie.linalg import Mat, MatOver, Subspace, Vec, _flat, bilinear, det, diag_scaled, dot, eigenspaces
from aqslie.linalg import _int_rows, _int_scaled, char_poly, identity, stacked
from aqslie.linalg import inverse, is_positive_definite, mat_add, mat_eq, mat_mul, mat_scale
from aqslie.linalg import mat_sub, mat_vec, mat_vecs, max_abs, nullspace, solve
from aqslie.linalg import transpose, vec_eq, vec_is_zero, vec_scale, zeros
from aqslie.scalars import ONE, ZERO, Ext, is_exact, s_abs, s_add, s_div, s_eq, s_inv, s_is_zero
from aqslie.scalars import s_mul, s_neg, s_sqrt, s_sub, units
from aqslie.tower import TowerOver, tower_values


def wedge_power(a: KForm, p: int) -> KForm:
    out = one_scalar_form(a.dim)
    for _ in range(p):
        out = wedge(out, a)
    return out


def structure_constant(L: LieAlgebra, i: int, j: int, k: int):
    """Signed structure constant c_ij^k, from the stored table."""
    if i == j:
        return ZERO
    if i > j:
        return s_neg(structure_constant(L, j, i, k))
    return dict(dict(L.brackets).get((i, j), ())).get(k, ZERO)


def form_add(a: KForm, b: KForm) -> KForm:
    if a.dim != b.dim or a.degree != b.degree:
        raise DimensionMismatch("forms of different degrees or ambient dimensions")
    terms = {k: v for k, v in a.coeffs}
    for k, v in b.coeffs:
        terms[k] = s_add(terms.get(k, ZERO), v)
    return KForm.make(a.degree, a.dim, terms)


def form_sub(a: KForm, b: KForm) -> KForm:
    return form_add(a, form_scale(b, s_neg(ONE)))


def form_eq(a: KForm, b: KForm) -> bool:
    return form_sub(a, b).is_zero()


def evaluate(a: KForm, vectors: list[Vec]):
    """a(v_1, ..., v_k) via k x k minors.  The package compares 2-forms on
    basis pairs as Gram products (w(A e_a, A e_b) is entry (a, b) of A^T W A);
    this is the independent oracle the tests hold them against."""
    if len(vectors) != a.degree:
        raise DimensionMismatch("wrong number of arguments")
    total = ZERO
    for I, c in a.coeffs:
        minor = [[vectors[col][row] for col in range(a.degree)] for row in I]
        total = s_add(total, s_mul(c, det(minor)))
    return total


def psi_squared_spectrum(S: AcmStructure) -> list[tuple[object, int]]:
    """Eigenvalues of psi^2 on D with multiplicities, most negative first.

    Exact mode raises IrrationalSpectrum when the characteristic polynomial
    has non-rational roots (retry in float mode in that case).
    """
    require_maximal(S, CLASS_ANTI_QUASI_SASAKIAN)
    return [(ev, mult) for ev, mult, _ in _psi2_orbits(S)]


def precondition_first(S: AcmStructure, family: str) -> HeisenbergIso:
    """The normal form of family ("aqs" or "qs") with every precondition checked
    before the frame is built, and the aqS frame read off the public
    ``adapted_frame``: its operator identity suite, psi^2 signs and Gram check.
    A rational rescaling is classified instead and F mapped back."""
    if r := rational_rescaling(S):
        return _mapped_back(precondition_first(r.S, family), r.down)
    if family == "qs":
        _common_preconditions(S, CLASS_QUASI_SASAKIAN)
        return _qs_iso(S)
    _common_preconditions(S, CLASS_ANTI_QUASI_SASAKIAN)
    frame = adapted_frame(S)
    n, weights = frame.n, list(frame.weights)
    _, (_, t2, _) = weighted_heisenberg_4n1(n, weights)
    F = eliminated_frame_isomorphism(S, t2, list(frame.unscaled), list(frame.scales))
    return HeisenbergIso("4n+1", n, tuple(weights), tuple(map(tuple, F)), (1,) * n, 2)


def eliminated_frame_isomorphism(S: AcmStructure, target_S: AcmStructure, columns: list,
                                 scales: list) -> Mat:
    """``classifier._frame_isomorphism`` as it ran before the Gram identity
    inverted exact frames: F = T^-1 for T = R diag(scales), an exact frame's
    M = R^-1 by elimination, checked against the target in the basis D_k e_k,
    D = 1 / scales, and F = D M; a float frame's T inverted itself."""
    R = transpose(columns)
    if S.L.floats:
        F = inverse(transpose([vec_scale(c, x) for c, x in zip(columns, scales)]))
        _verify_iso(S, target_S, *S.L.values(F, inverse(F)))
        return F
    D = [s_inv(x) for x in scales]
    M = inverse(R)
    _verify_iso(S, rescaled(target_S, D, scales), *S.L.values(M, R))
    return diag_scaled(M, D, None)


def ad_stack_d_eta(ads: list, E: MatOver) -> MatOver:
    """The matrix of d eta, d eta(b_k, b_j) = -eta([b_k, b_j]), as
    ``exterior.d_of_covector`` formed it before it read the table: one product
    of eta with the stacked columns of the basis ad matrices."""
    n = len(ads)
    P = stacked([ad.T for ad in ads]).on_rows(E)  # eta([b_k, b_j]) at k n + j
    return -P.regroup(lambda N: [N[0][k * n:k * n + n] for k in range(n)])


def ad_stack_pair_brackets(ads: list, pairs: list) -> MatOver:
    """Row p: [b_i, b_j] for the p-th pair (i, j), the column j of ad_i, picked out
    of the stacked ad matrices as ``acm`` did before ``lie_core.basis_brackets``."""
    n = len(ads)
    return stacked([ad.T for ad in ads]).regroup(lambda N: [N[i * n + j] for i, j in pairs])


def scalar_outer_rows(pairs: list, exact: bool) -> tuple[list, MatOver]:
    """``tower.outer_rows`` as ``acm.ConnectionTable.nablas`` formed its coefficient
    rows before rational pairs ran on integers: one scalar product X_i Y_j per pair
    of supports, the rows made a value afterwards."""
    n = len(pairs[0][0]) if pairs else 0
    supports = [[(i, x) for i, x in enumerate(v) if not s_is_zero(x)]
                for pair in pairs for v in pair]
    coeffs = [{i * n + j: s_mul(x, y) for i, x in xs for j, y in ys}
              for xs, ys in zip(supports[::2], supports[1::2])]
    used, zero = sorted(set().union(*coeffs)), units(not exact)[0]
    rows = [[c.get(u, zero) for u in used] for c in coeffs]
    return used, MatOver.of(rows) if exact else MatOver(rows)


def rescaled_target(family: str, n: int, weights: list, signs: list, lengths: list,
                    squares: list) -> AcmStructure:
    """The target of an exact frame as ``classifier._frame_isomorphism`` built it
    before the frame basis: h^{4n+1}_w with phi_2, or h^{2n+1}_w with the signed
    phi, rewritten entry by entry in the basis D_k e_k (``acm.rescaled``, 1/D_k =
    D_k / q_k) with the metric diag(q) that g = I becomes there."""
    if family == "aqs":
        target = weighted_heisenberg_4n1(n, weights)[1][1]
    else:
        target = weighted_heisenberg_2n1(n, weights)[1]
        signed = [(r, n + r, x) for r, x in enumerate(signs, start=1)]
        target = replace(target, phi=tuple(map(tuple, _rotation(2 * n + 1, signed))))
    return rescaled(target, lengths, [s_div(x, q) for x, q in zip(lengths, squares)])


@dataclass(frozen=True)
class CoframeReport:
    ok: bool
    mismatches: list  # (form name, (a, b), got, expected)


def coframe_expansion_check(S: AcmStructure, F: AdaptedFrame) -> CoframeReport:
    """Verify the adapted-coframe expansions coefficient by coefficient:

        A-form = -sum_i w_i (eps_i ^ eps_{n+i} + eps_{2n+i} ^ eps_{3n+i})
        Phi    = -sum_i (eps_i ^ eps_{2n+i} + eps_{3n+i} ^ eps_{n+i})
        Psi    = -sum_i w_i (eps_i ^ eps_{3n+i} + eps_{n+i} ^ eps_{2n+i})
    """
    require_maximal(S, CLASS_ANTI_QUASI_SASAKIAN)
    pack, g = operators_A_psi(S), S.g_mat()
    n = F.n
    cols = F.columns()
    dimension = S.L.dim
    if 4 * n + 1 != dimension or len(cols) != dimension:
        raise PreconditionError("frame does not match the structure")

    # frame positions: xi = 0, e_i = i, e_{n+i} = n+i, ... (i = 1..n)
    expected: dict = {"A": {}, "Phi": {}, "Psi": {}}
    for i, w in enumerate(F.weights, start=1):
        expected["A"].update({(i, n + i): s_neg(w), (2 * n + i, 3 * n + i): s_neg(w)})
        expected["Phi"].update({(i, 2 * n + i): s_neg(ONE), (n + i, 3 * n + i): ONE})
        expected["Psi"].update({(i, 3 * n + i): s_neg(w), (n + i, 2 * n + i): s_neg(w)})

    # the matrices W of g(., A .), Phi = g(., phi .) and g(., psi .)
    forms = {name: mat_mul(g, [list(r) for r in X])
             for name, X in (("A", pack.A), ("Phi", S.phi), ("Psi", pack.psi))}
    T = transpose(cols)
    mismatches = []
    for name, W in forms.items():
        # the form on frame pairs: the Gram matrix T^T W T
        gram = mat_mul(cols, mat_mul(W, T))
        for a in range(dimension):
            for b in range(a + 1, dimension):
                got = gram[a][b]
                want = expected[name].get((a, b), ZERO)
                if not s_eq(got, want):
                    mismatches.append((name, (a, b), got, want))
    return CoframeReport(not mismatches, mismatches)


def companion_structures(S: AcmStructure, iso: HeisenbergIso):
    """Pull the remaining target structures back through F.

    Returns (aqs_companion, qs_companion) on the source algebra; together
    with the source phi they satisfy phi_1 phi_2 = phi_3 = -phi_2 phi_1,
    the source phi sitting in the middle slot.
    """
    if iso.family != "4n+1":
        raise PreconditionError("companions exist for the 4n+1 family only")
    target_L, (t1, t2, t3) = weighted_heisenberg_4n1(iso.n, list(iso.weights))
    F = iso.F_mat()
    F_inv = inverse(F)
    phi1 = mat_mul(F_inv, mat_mul(t1.phi_mat(), F))
    phi3 = mat_mul(F_inv, mat_mul(t3.phi_mat(), F))
    aqs = AcmStructure.make(S.L, phi1, S.xi_vec(), S.eta_row(), S.g_mat())
    qs = AcmStructure.make(S.L, phi3, S.xi_vec(), S.eta_row(), S.g_mat())
    return aqs, qs


def reeb_uniqueness_check(S: AcmStructure) -> bool:
    """True iff xi is the unique vector with eta(v) = 1 and d eta(v, .) = 0."""
    n = S.L.dim
    deta = bilinear_from_form(ce_d(S.L, S.eta_form()))
    rows = [S.eta_row()] + transpose(deta)
    rhs = [ONE] + [ZERO] * n
    if nullspace(rows, n):
        return False  # solution set is a positive-dimensional affine space
    sol = solve(rows, rhs)
    return sol is not None and vec_eq(sol, S.xi_vec())


def kahler_to_json(H) -> dict:
    doc = algebra_to_json(H.L)
    doc["kind"] = "kahler_lie_algebra"
    doc["J"] = _matrix_to_json(H.J_mat())
    doc["metric"] = _matrix_to_json(H.k_mat())
    return doc


def matrix_to_json(M: Mat, mode: str = "exact") -> dict:
    return {"kind": "matrix", "mode": mode, "dim": len(M), "rows": _matrix_to_json(M)}


@dataclass(frozen=True)
class CentralQuotient:
    algebra: LieAlgebra
    # cocycle omega on the complement coordinates: [X,Y] = [X,Y]_D - omega(X,Y) xi
    cocycle: tuple
    complement_to_ambient: tuple  # columns: images of quotient basis in g
    xi: tuple


def quotient_by_center_line(L: LieAlgebra, xi: Vec, D: Subspace) -> CentralQuotient:
    """Lie algebra on a complement D of a central line, with the 2-cocycle
    splitting [X,Y] = [X,Y]_D - omega(X,Y) xi certified exactly."""
    n = L.dim
    if D.dim != n - 1:
        raise PreconditionError("complement must have codimension 1")
    if not all(map(vec_is_zero, ad_matrix(L, list(xi)))):
        raise PreconditionError("xi is not central")
    if D.contains(list(xi)):
        raise PreconditionError("xi lies in the complement")
    cols = [list(b) for b in D.basis] + [list(xi)]
    Tinv = inverse(transpose(cols))  # columns d_1..d_{n-1}, xi
    m = n - 1
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    # W[p]: the coordinates of [d_a, d_b] in the basis d_1..d_{n-1}, xi, for pair p
    brackets = [bracket(L, cols[a], cols[b]) for a, b in pairs]
    W = transpose(mat_mul(Tinv, transpose(brackets)))
    table: BracketTable = {}
    omega = zeros(m, m)
    for (a, b), w in zip(pairs, W):
        coeffs = {k: w[k] for k in range(m) if not s_is_zero(w[k])}
        if coeffs:
            table[(a, b)] = coeffs
        omega[a][b] = s_neg(w[m])
        omega[b][a] = w[m]
    names = []
    for a, col in enumerate(cols[:m]):
        hits = [i for i in range(n) if not s_is_zero(col[i])]
        unit = len(hits) == 1 and s_is_zero(s_sub(col[hits[0]], ONE))
        names.append(L.basis_names[hits[0]] if unit else f"d{a+1}")
    quotient = LieAlgebra.from_brackets(m, table, names, L.mode, check=True)
    # certificate, pairs as columns: [d_a, d_b] = incl([.,.]_D) - omega_ab * xi, exactly
    coords = [[structure_constant(quotient, a, b, k) for a, b in pairs] for k in range(m)]
    rhs = mat_sub(mat_mul(transpose(cols[:m]), coords),
                  mat_mul([[x] for x in xi], [[omega[a][b] for a, b in pairs]]))
    if pairs and not mat_eq(transpose(brackets), rhs):
        raise PreconditionError("bracket does not split along the given complement")
    return CentralQuotient(
        quotient,
        tuple(tuple(r) for r in omega),
        tuple(tuple(c) for c in cols[:m]),
        tuple(xi),
    )


# ---------------------------------------------------------------------------
# the classify stages as they ran before the numerator view
# ---------------------------------------------------------------------------
# Each stage below scales its own Fraction inputs in every kernel call and
# divides every kernel result back: the formulas the package ran before a
# structure kept one numerator view (``acm.numerator_view``) and the stages
# passed (numerators, den) pairs.  The tests compare the stages with these by
# repr, so every float bit, the sign of a zero and ZERO against 0.0 show.

def _res(A: Mat, B: Mat, op=mat_sub):
    return max_abs(_flat(op(A, B)))


def stage_validation(S: AcmStructure) -> dict:
    n = S.L.dim
    phi, g, xi, eta = S.phi_mat(), S.g_mat(), S.xi_vec(), S.eta_row()
    target = mat_sub([[s_mul(xi[i], eta[j]) for j in range(n)] for i in range(n)], identity(n))
    eta_eta = [[s_mul(eta[i], eta[j]) for j in range(n)] for i in range(n)]
    return {
        "phi_squared": _res(mat_mul(phi, phi), target),
        "eta_xi": s_abs(s_sub(dot(eta, xi), ONE)),
        "g_symmetric": _res(g, transpose(g)),
        "compatibility": _res(mat_mul(transpose(phi), mat_mul(g, phi)), mat_sub(g, eta_eta)),
        "phi_xi": max_abs(mat_vec(phi, xi)),
        "eta_phi": max_abs(mat_vec(transpose(phi), eta)),
        "xi_unit": s_abs(s_sub(bilinear(xi, g, xi), ONE)),
        "g_positive_definite": ZERO if is_positive_definite(g) else ONE,
    }


def nijenhuis_loop(L: LieAlgebra, J: Mat) -> dict:
    """[J, J] on the pairs i < j as ``acm.nijenhuis`` formed it one i at a time:
    M_i = ad_{J b_i} - J ad_i from a table pass and a product, then the
    columns j > i of M_i J - J M_i, four products for each i."""
    ads, (J,) = L.ad_values(J)
    cols, blocks = J.T, []
    for i in range(L.dim):
        M = ad_value(L, cols[i:i + 1]) - J @ ads[i]
        J_right, M_right = (X.regroup(lambda N: [row[i + 1:] for row in N]) for X in (J, M))
        blocks.append((M @ J_right - J @ M_right).T)
    return dict(zip(_pairs(L.dim), stacked(blocks).mat()))


def nijenhuis_four_products(ads: list, J: MatOver) -> MatOver:
    """[J, J] on the pairs i < j, in order, as the columns of one value, from four
    products, as ``acm`` formed it before ``lie_core.nijenhuis_columns``: column (i, j)
    = M_i J e_j - J M_i e_j, row k of M_i = ad_{J b_i} - J ad_i at row i n + k of M.
    Each entry keeps its own fold; ad_{J b_i} skips the near-zero J_ai, as the table's
    readers do.  Block i of M J is read at j > i: two products make 2/3 of it, cut at
    h = n // 2."""
    n, pairs = len(ads), _pairs(len(ads))
    rows = stacked(ads)  # row a n + k: row k of ad_a; J ad_i is block i of J_ad
    ad_J = rows.regroup(lambda N: [[N[a * n + k][j] for a in range(n)]
                                   for k in range(n) for j in range(n)]).on_rows(J.T)
    J_ad = J @ rows.regroup(lambda N: [_flat(N[m::n]) for m in range(n)])
    M = (ad_J.regroup(lambda N: [row[k * n:k * n + n] for row in N for k in range(n)])
         - J_ad.regroup(lambda N: [row[i * n:i * n + n] for i in range(n) for row in N]))
    on_pairs = lambda N: [[N[i * n + k][j] for i, j in pairs] for k in range(n)]  # noqa: E731
    h = n // 2  # the blocks below h from column 1 on, the others from column h + 1 on
    MJ = stacked([M[a * n:b * n] @ J.regroup(lambda N, s=s: [row[s:] for row in N])
                  for a, b, s in ((0, h, 1), (h, n, h + 1))])
    return MJ.regroup(lambda N: [[N[i * n + k][j - (1 if i < h else h + 1)] for i, j in pairs]
                                 for k in range(n)]) - J @ M.regroup(on_pairs)


def fundamental_form(S: AcmStructure) -> KForm:
    """Phi(X, Y) = g(X, phi Y) as a 2-form (classify reads the matrix g phi)."""
    return form_from_bilinear(mat_mul(S.g_mat(), S.phi_mat()))


def stage_classification(S: AcmStructure) -> dict:
    Phi = fundamental_form(S)
    dPhi, deta = ce_d(S.L, Phi), ce_d(S.L, S.eta_form())
    deta_mat = bilinear_from_form(deta)
    nij = nijenhuis_loop(S.L, S.phi_mat())
    xi_col = [[x] for x in S.xi]
    deta_pairs = [[deta_mat[i][j] for i, j in nij]]
    n_phi = mat_add(transpose(list(nij.values())), mat_mul(xi_col, deta_pairs))
    zero = units(S.L.floats)[0]  # a form keeps no zero coefficient: read in S's field
    return {
        "d_phi": max_abs([zero, *(c for _, c in dPhi.coeffs)]),
        "d_eta": max_abs([zero, *(c for _, c in deta.coeffs)]),
        "n_phi": max_abs(_flat(n_phi)),
        "anti_normal": _res(n_phi, mat_mul(xi_col, mat_scale(deta_pairs, Fraction(2)))),
        "contact_metric": _res(deta_mat, mat_scale(bilinear_from_form(Phi), 2)),
    }


def eager_mapped_residuals(S: AcmStructure) -> dict:
    """The classification residuals of S read on its rational rescaling, when
    there is one, with every column scale made and every entry mapped back
    before any is read: the map-back ``acm.classify_structure`` ran before it
    made a column's scale only where the column has a nonzero entry."""
    r = rational_rescaling(S)
    triples, entries = _residual_entries(S if r is None else r.S)
    if r is None:
        return {name: X.max_abs() for name, X in entries.items()}
    by_pair = [r.down[i] * r.down[j] for i, j in _pairs(S.L.dim)]
    scalings = {"d_phi": (None, [math.prod(map(r.down.__getitem__, I)) for I in triples]),
                "n_phi": (r.up, by_pair), "anti_normal": (r.up, by_pair)}
    return {name: max_abs(_flat(diag_scaled(X.mat(), *scalings.get(name, (None, by_pair)))))
            for name, X in entries.items()}


def stage_connection(S: AcmStructure) -> tuple:
    """Gamma_i as rows, the Koszul solve on numerators divided back at once."""
    L, g = S.L, S.g_mat()
    n = L.dim
    ads, (g, half_g_inv) = L.ad_values(g, mat_scale(inverse(g), ONE / 2))
    den = g.den * half_g_inv.den * ads[0].den
    g, half_g_inv, ads = g.N, half_g_inv.N, [ad.N for ad in ads]
    gads = [mat_mul(g, ad) for ad in ads]
    koszul = []
    for i in range(n):
        B = [[gads[j][i][k] for j in range(n)] for k in range(n)]
        C = [[gads[k][j][i] for j in range(n)] for k in range(n)]
        koszul += transpose(mat_add(mat_sub(gads[i], B), C))
    solved = mat_vecs(half_g_inv, koszul)
    return tuple(tuple(map(tuple, divided_back(transpose(solved[i * n:i * n + n]), den)))
                 for i in range(n))


def divided_back(N: Mat, den: int) -> Mat:
    """N / den as a value divides it back: exact N as a class value, float N over 1."""
    return tower_values([N], den)[0].mat() if all(map(is_exact, _flat(N))) else N


def value_like(V: MatOver, N: Mat) -> MatOver:
    """The numerators N over the denominator of V, of V's kind (a rational V's class 1)."""
    return TowerOver({1: N}, V.den) if isinstance(V, TowerOver) else MatOver(N)


def gamma_rows(conn: ConnectionTable) -> tuple:
    """Gamma_i as rows for each i, from the table's columns divided back."""
    back = conn.columns.mat()
    n = math.isqrt(len(back))
    return tuple(tuple(zip(*back[i * n:i * n + n])) for i in range(n))


def stage_ricci(S: AcmStructure) -> tuple:
    """(Ricci, scalar curvature) by the loop on the divided-back table
    :func:`gamma_rows` that curvature ran before it read numerators."""
    if r := rational_rescaling(S):
        ricci, scal = stage_ricci(r.S)
        return tuple(map(tuple, diag_scaled(ricci, r.down, r.down))), scal
    conn, L = levi_civita(S), S.L
    gamma, n, ricci = gamma_rows(conn), L.dim, zeros(L.dim, L.dim)
    ads = L.ad_values()[0]
    # lefts[a][i n + j] = (Gamma_a Gamma_i)_aj
    lefts = transpose(mat_vecs([G[a] for a, G in enumerate(gamma)],
                               [c for G in gamma for c in transpose(G)]))
    for a in range(n):
        rows = [G[a] for G in gamma]  # rows[k] = row a of Gamma_k
        left = [lefts[a][i * n:i * n + n] for i in range(n)]
        # (Gamma_i Gamma_a)_a, one mat_vecs call on the columns of Gamma_a
        right = transpose(mat_vecs(rows, transpose(gamma[a])))
        # row i: (sum_k c_ai^k Gamma_k)_a, with [b_a, b_i] the column i of ad_a
        brackets = mat_vecs(transpose(rows), transpose(ads[a].mat()))
        # summed as the full-vector R(b_a, b_i) b_j was: float entries keep their bits
        ricci = mat_add(ricci, mat_sub(mat_sub(left, right), brackets))
    scal = dot(_flat(inverse(S.g_mat())), _flat(ricci))
    return tuple(tuple(r) for r in ricci), scal


def stage_operators(S: AcmStructure) -> tuple:
    """(A, psi, residuals) of the operator pack."""
    phi, g, xi, eta = S.phi_mat(), S.g_mat(), S.xi_vec(), S.eta_row()
    psi = transpose([[s_neg(x) for x in mat_vec(G, xi)] for G in stage_connection(S)])
    A = mat_mul(phi, psi)
    psiA, gA, gpsi = mat_mul(psi, A), mat_mul(g, A), mat_mul(g, psi)
    residuals = {
        "A_phi_eq_psi": _res(mat_mul(A, phi), psi),
        "phi_A_eq_minus_psi": _res(mat_mul(phi, A), psi, mat_add),
        "psi_phi_eq_minus_A": _res(mat_mul(psi, phi), A, mat_add),
        "psi_A_anticommute": _res(psiA, mat_mul(A, psi), mat_add),
        "psi_A_eq_minus_phi_A2": _res(psiA, mat_mul(phi, mat_mul(A, A)), mat_add),
        "A_xi": max_abs(mat_vec(A, xi)),
        "psi_xi": max_abs(mat_vec(psi, xi)),
        "eta_A": max_abs(mat_vec(transpose(A), eta)),
        "eta_psi": max_abs(mat_vec(transpose(psi), eta)),
        "A_skew": _res(transpose(gA), gA, mat_add),
        "psi_skew": _res(transpose(gpsi), gpsi, mat_add),
    }
    return A, psi, residuals


def table_psi(S: AcmStructure) -> MatOver:
    """psi = -nabla xi off the whole Levi-Civita table: column j is Gamma_j
    folded on xi, the route ``acm.psi_matrix`` took on a float view before it
    built only the rows Gamma_a b_k along the support of xi."""
    v, n = numerator_view(S), S.L.dim
    C = levi_civita(S).columns
    return -stacked([C[j * n:j * n + n].T.on_rows(v.xi) for j in range(n)]).T


def stage_spectrum(S: AcmStructure) -> list:
    """[(eigenvalue, multiplicity, quadruples (v, Av, phi v, psi v))] of psi^2."""
    A, psi, _ = stage_operators(S)
    g, phi = S.g_mat(), S.phi_mat()
    out = []
    spectrum = [e for e in eigenspaces(mat_mul(psi, psi), g) if not s_is_zero(e[0])]
    for ev, mult, basis in sorted(spectrum, key=lambda entry: -abs(float(entry[0]))):
        orbits: list = []
        for _ in range(mult // 4):
            chosen = [x for orbit in orbits for x in orbit]
            v = list(basis[0])
            if chosen:
                rows = [[dot(mat_vec(g, c), b) for b in basis] for c in chosen]
                v = mat_vec(transpose(basis), nullspace(rows, len(basis))[0])
            orbits.append((v, *(mat_vec(m, v) for m in (A, phi, psi))))
        out.append((ev, mult, orbits))
    return out


def stage_frame(S: AcmStructure) -> tuple:
    """(weights, unscaled columns, scales) of the adapted frame."""
    quadruples, weights = [], []
    for ev, _, orbits in stage_spectrum(S):
        quadruples.extend(orbits)
        weights.extend([s_sqrt(s_neg(ev))] * len(orbits))
    g, one = S.g_mat(), units(S.L.floats)[1]  # the frame's scales in S's field
    norms = [s_sqrt(bilinear(v, g, v)) for v, _, _, _ in quadruples]
    inv = [s_div(one, x) for x in norms]
    inv_w = [s_div(one, s_mul(w, x)) for w, x in zip(weights, norms)]
    R = [S.xi_vec()] + [quad[b] for b in range(4) for quad in quadruples]
    return tuple(weights), tuple(tuple(c) for c in R), tuple([one] + inv + inv_w + inv + inv_w)


def stage_isomorphism(S: AcmStructure) -> Mat:
    """F = T^-1 for the adapted frame T = R diag(scales): D R^-1 with
    D = 1 / scales for an exact frame, the inverse of T itself for floats."""
    _, columns, scales = stage_frame(S)
    if not all(is_exact(x) for c in columns for x in c):
        return inverse(transpose([vec_scale(list(c), x) for c, x in zip(columns, scales)]))
    return [vec_scale(row, s_inv(x)) for row, x in zip(inverse(transpose(columns)), scales)]


def poly_eval(coeffs: list, x):
    acc = ZERO
    for c in coeffs:
        acc = s_add(s_mul(acc, x), c)
    return acc


def _poly_divmod(a: list, b: list) -> tuple[list, list]:
    """Quotient and remainder of a by b (coefficients highest degree first,
    b[0] != 0); the remainder keeps len(b) - 1 coefficients."""
    rem, quo = list(a), []
    for _ in range(len(a) - len(b) + 1):
        f = rem[0] / b[0]
        quo.append(f)
        rem = [x - f * y for x, y in zip(rem[1:], b[1:])] + rem[len(b):]
    return quo, rem


def _squarefree_part(p: list) -> list:
    """p / gcd(p, p') over the rationals: the same roots, each simple."""
    deg = len(p) - 1
    a, b = p, [c * (deg - i) for i, c in enumerate(p[:-1])]
    while b:
        _, r = _poly_divmod(a, b)
        while r and r[0] == 0:
            r = r[1:]
        a, b = b, r
    return _poly_divmod(p, a)[0]


def _deflate(p: list, root: Fraction) -> list | None:
    """p / (x - root) when root is a root of p, else None."""
    out, acc = [], Fraction(0)
    for c in p:
        acc = acc * root + c
        out.append(acc)
    return out[:-1] if out[-1] == 0 else None


def _divisors(n: int) -> list[int]:
    """The positive divisors of |n|, ascending (none for 0), by trial division
    up to sqrt|n|; ArithmeticError past 3 * 10^6 of them, so a reference
    call on large input gives up instead of running for minutes."""
    if (root := math.isqrt(n := abs(n))) > 3_000_000:
        raise ArithmeticError(f"constant term {n} is too large to factor at desk scale")
    small = [d for d in range(1, root + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def rational_roots(coeffs: list) -> tuple[dict[Fraction, int], int]:
    """All rational roots (with multiplicity) of a monic rational polynomial.

    Returns (roots, residual_degree); residual_degree > 0 means the
    polynomial does not split over the rationals.  Candidates come from the
    rational root theorem applied to the squarefree part p / gcd(p, p')
    (Yun 1976), whose constant term is far smaller than p's when roots
    repeat: its numerator divides the constant term and its denominator
    the leading coefficient.  Each root's multiplicity is then recovered by
    exact repeated division of p.  Roots are listed by increasing absolute
    value, a positive root before its negative.
    """
    work = [Fraction(c) if not isinstance(c, Fraction) else c for c in coeffs]
    roots: dict[Fraction, int] = {}
    while len(work) > 1 and work[-1] == 0:
        work = work[:-1]
        roots[Fraction(0)] = roots.get(Fraction(0), 0) + 1
    if len(work) == 1:
        return roots, 0
    simple = _squarefree_part(work)
    ints = _int_scaled(simple)[0]
    content = math.gcd(*ints)
    candidates = {
        Fraction(p, q)
        for p in _divisors(ints[-1] // content)
        for q in _divisors(ints[0] // content)
    }
    for cand in sorted(candidates):
        for root in (cand, -cand):
            if poly_eval(simple, root) != 0:
                continue
            mult = 0
            while (quotient := _deflate(work, root)) is not None:
                work, mult = quotient, mult + 1
            roots[root] = mult
    return roots, len(work) - 1


def eig_sym_char_poly(M: Mat) -> list[tuple[Fraction, int, list[Vec]]]:
    """``linalg.eig_sym_exact`` as it read the rational roots of the whole
    characteristic polynomial (``rational_roots`` of ``linalg.char_poly``) on
    every exact field and certified each eigenspace by its algebraic
    multiplicity."""
    scale, scaled = ONE, _int_rows(M)
    if scaled is not None:
        (ints,), den = scaled
        content = math.gcd(*_flat(ints)) or 1
        M, scale = [[x // content for x in row] for row in ints], Fraction(content, den or 1)
    coeffs = char_poly(M)
    if any(isinstance(c, Ext) for c in coeffs):  # a rational value is a Fraction
        raise IrrationalSpectrum(
            "characteristic polynomial has non-rational tower coefficients"
        )
    roots, residual = rational_roots(coeffs)
    if residual > 0:
        raise IrrationalSpectrum(
            f"characteristic polynomial does not split over the rationals "
            f"(residual degree {residual})"
        )
    out = []
    for root in sorted(roots):
        mult, ev = roots[root], root * scale
        shift = root if scaled is None else int(root)
        shifted = [[s_sub(x, shift) if i == j else x for j, x in enumerate(row)]
                   for i, row in enumerate(M)]
        basis = nullspace(shifted)
        if len(basis) != mult:
            raise IrrationalSpectrum(
                f"eigenvalue {ev}: geometric multiplicity {len(basis)} != "
                f"algebraic {mult}; matrix not symmetric over the scalars"
            )
        out.append((ev, mult, basis))
    return out


# ---------------------------------------------------------------------------
# closed invariant 2-forms from their defining equations
# ---------------------------------------------------------------------------

def invariant_closed_2forms_by_equations(R: ReductiveSplit) -> list[KForm]:
    """Basis of the closed ad(k)-invariant 2-forms on m, one equation row at a
    time on the unknowns w(X_a, X_b), a < b.

    Invariance: w(ad_U X, Y) + w(X, ad_U Y) = 0 for all U in k.
    Closedness: w([X,Y]_m, Z) + w([Y,Z]_m, X) + w([Z,X]_m, Y) = 0.
    """
    dm = R.m.dim
    pairs = list(combinations(range(dm), 2))
    index = {p: t for t, p in enumerate(pairs)}

    def w_entry(row: Vec, a_coords: Vec, b: int, scale=ONE) -> None:
        # accumulate w(sum_t a_t X_t, X_b) into the row of unknowns
        for t, c in enumerate(a_coords):
            if s_is_zero(c) or t == b:
                continue
            key, sgn = ((t, b), ONE) if t < b else ((b, t), s_neg(ONE))
            row[index[key]] = s_add(row[index[key]], s_mul(scale, s_mul(c, sgn)))

    rows: Mat = []
    for U in R.k_cols():
        ad_images = transpose(R.ad_m(U))  # [U, X_a]_m
        for a, b in pairs:
            row = [ZERO] * len(pairs)
            w_entry(row, ad_images[a], b)
            # w(X_a, ad_U X_b) = -w(ad_U X_b, X_a)
            w_entry(row, ad_images[b], a, s_neg(ONE))
            rows.append(row)
    brackets = [transpose(R.ad_m(X)) for X in R.m_cols()]  # [a][b] = [X_a, X_b]_m
    for a, b, c in combinations(range(dm), 3):
        row = [ZERO] * len(pairs)
        w_entry(row, brackets[a][b], c)
        w_entry(row, brackets[b][c], a)
        w_entry(row, brackets[c][a], b)
        rows.append(row)
    basis = nullspace(rows, len(pairs))
    return [
        KForm.make(2, dm, {pairs[t]: v[t] for t in range(len(pairs))}) for v in basis
    ]
