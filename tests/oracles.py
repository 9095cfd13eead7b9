"""Oracles, paper checks and fixture writers that only the unit tests call.

No command, acceptance criterion or benchmark reaches these, so they live
beside the tests: the exterior oracles (``evaluate``, the determinant minors
the Gram products are held against), the paper checks of the adapted
coframe, psi^2, the companion structures and the Reeb vector, the writers of
Kahler and matrix documents, and the central quotient the classifier does
without (it tests [g, g] inside R xi by a rank).
"""

from __future__ import annotations

from dataclasses import dataclass

from aqslie.acm import CLASS_ANTI_QUASI_SASAKIAN, AcmStructure, operators_A_psi
from aqslie.adapted import AdaptedFrame, _psi2_orbits, require_maximal
from aqslie.classifier import HeisenbergIso
from aqslie.constructors import weighted_heisenberg_4n1
from aqslie.errors import DimensionMismatch, PreconditionError
from aqslie.exterior import KForm, bilinear_from_form, ce_d, form_sub, one_scalar_form, wedge
from aqslie.io import _matrix_to_json, algebra_to_json
from aqslie.lie_core import BracketTable, LieAlgebra, ad_matrix, bracket
from aqslie.linalg import Mat, Subspace, Vec, det, inverse, mat_eq, mat_mul, mat_sub, nullspace
from aqslie.linalg import solve, transpose, vec_eq, vec_is_zero, zeros
from aqslie.scalars import ONE, ZERO, s_add, s_eq, s_is_zero, s_mul, s_neg, s_sub


def wedge_power(a: KForm, p: int) -> KForm:
    out = one_scalar_form(a.dim)
    for _ in range(p):
        out = wedge(out, a)
    return out


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
    coords = [[quotient.c(a, b, k) for a, b in pairs] for k in range(m)]
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
