"""Structure validation, classification, connection, operators, curvature."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aqslie.acm as acm
import aqslie.exterior as exterior
from aqslie.acm import (
    CLASS_ANTI_QUASI_SASAKIAN,
    CLASS_COKAHLER,
    CLASS_CONTACT_METRIC,
    CLASS_QUASI_SASAKIAN,
    CLASS_SASAKIAN,
    CLASS_UNCLASSIFIED,
    AcmStructure,
    classify_structure,
    closedness_suite,
    conjugate_structure,
    curvature,
    double_aqs_check,
    levi_civita,
    nijenhuis,
    nijenhuis_phi,
    operators_A_psi,
    sectional_curvature,
    sectional_curvatures,
    structure_rank,
    validate_acm,
    xi_killing_check,
)
from aqslie.constructors import abelian, su3, weighted_heisenberg_2n1, weighted_heisenberg_4n1
from aqslie.errors import InternalContradiction, NotAqs, PreconditionError, ToleranceExceeded
from aqslie.exterior import bilinear_from_form, ce_d
from aqslie.lie_core import LieAlgebra, ad_matrix, bracket
from aqslie.linalg import (
    MatOver,
    identity,
    inverse,
    mat_add,
    mat_eq,
    mat_mul,
    mat_scale,
    mat_sub,
    mat_vec,
    mat_vecs,
    max_abs,
    random_unimodular,
    transpose,
    vec_is_zero,
    vec_sub,
    zeros,
)
from aqslie.scalars import (
    DEFAULT_TOLERANCE,
    ZERO,
    Ext,
    s_abs,
    s_add,
    s_eq,
    s_is_zero,
    s_lt,
    s_mul,
    s_neg,
    s_sub,
    set_tolerance,
)
from floatcopy import float_structure
from oracles import evaluate, fundamental_form, gamma_rows


def h5_structures():
    return weighted_heisenberg_4n1(1, [1])


def test_validate_passes_on_constructed():
    for n, w in ((1, [1]), (2, [1, 2]), (1, [0])):
        _, structures = weighted_heisenberg_4n1(n, w)
        for S in structures:
            assert validate_acm(S).passed


def test_validate_fails_on_zero_phi():
    L = abelian(5)
    S = AcmStructure.make(
        L, zeros(5, 5), L.basis_vector(0), L.basis_vector(0), identity(5)
    )
    rep = validate_acm(S)
    assert not rep.passed
    assert not s_is_zero(rep.residuals["phi_squared"])


def test_validate_localizes_perturbation():
    _, (S1, _, _) = h5_structures()
    phi = S1.phi_mat()
    phi[2][3] = s_add(phi[2][3], F(1))
    S_bad = AcmStructure.make(S1.L, phi, S1.xi_vec(), S1.eta_row(), S1.g_mat())
    rep = validate_acm(S_bad)
    assert not rep.passed
    assert not s_is_zero(rep.max_residual)


def test_fundamental_form_matches_model():
    # Phi_i = -sum_r (th_r ^ th_{in+r} + th_{jn+r} ^ th_{kn+r})
    n = 2
    _, (S1, S2, S3) = weighted_heisenberg_4n1(n, [1, 2])
    perms = {0: (1, 2, 3), 1: (2, 3, 1), 2: (3, 1, 2)}
    for t, S in enumerate((S1, S2, S3)):
        i, j, k = perms[t]
        Phi = fundamental_form(S)
        for r in range(1, n + 1):
            assert s_eq(Phi.coeff((r, i * n + r)), F(-1))
            assert s_eq(Phi.coeff((j * n + r, k * n + r)), F(-1))
        assert len(Phi.coeffs) == 2 * n


def test_fundamental_form_unit_vectors():
    # Phi(e, phi e) = -1 for unit e orthogonal to xi
    _, (S1, _, _) = h5_structures()
    Phi = fundamental_form(S1)
    for i in range(1, 5):
        e = S1.L.basis_vector(i)
        phe = mat_vec(S1.phi_mat(), e)
        assert s_eq(evaluate(Phi, [e, phe]), F(-1))


def test_fundamental_form_closed_on_abelian():
    _, (A1, _, _) = weighted_heisenberg_4n1(1, [0])
    assert ce_d(A1.L, fundamental_form(A1)).is_zero()


def test_nijenhuis_abelian_zero():
    L = abelian(5)
    phi = zeros(5, 5)
    phi[2][1], phi[1][2] = F(1), F(-1)
    phi[4][3], phi[3][4] = F(1), F(-1)
    S = AcmStructure.make(L, phi, L.basis_vector(0), L.basis_vector(0), identity(5))
    assert all(vec_is_zero(v) for v in nijenhuis_phi(S).values())


def test_nijenhuis_phi3_equals_minus_deta_xi():
    # [phi3, phi3](X, Y) = -d eta(X, Y) xi, hence N_{phi3} = 0
    _, (_, _, S3) = h5_structures()
    nij = nijenhuis_phi(S3)
    deta = bilinear_from_form(ce_d(S3.L, S3.eta_form()))
    for (i, j), v in nij.items():
        want = [s_mul(s_neg(deta[i][j]), x) for x in S3.xi_vec()]
        assert all(s_eq(a, b) for a, b in zip(v, want))


def test_nijenhuis_phi1_equals_deta_xi():
    # [phi1, phi1] = d eta (x) xi, i.e. N_{phi1} = 2 d eta (x) xi
    _, (S1, _, _) = h5_structures()
    nij = nijenhuis_phi(S1)
    deta = bilinear_from_form(ce_d(S1.L, S1.eta_form()))
    for (i, j), v in nij.items():
        want = [s_mul(deta[i][j], x) for x in S1.xi_vec()]
        assert all(s_eq(a, b) for a, b in zip(v, want))


def _nijenhuis_per_pair(L, J):
    """[J, J] pair by pair from four brackets, summed in the order
    [J b_i, J b_j] + J^2 [b_i, b_j] - J [b_i, J b_j] - J [J b_i, b_j]."""
    n, cols = L.dim, transpose(J)
    basis = [L.basis_vector(i) for i in range(n)]
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            term = bracket(L, cols[i], cols[j])
            term = mat_add([term], [mat_vec(J, mat_vec(J, bracket(L, basis[i], basis[j])))])[0]
            term = vec_sub(term, mat_vec(J, bracket(L, basis[i], cols[j])))
            out[(i, j)] = vec_sub(term, mat_vec(J, bracket(L, cols[i], basis[j])))
    return out


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_float_nijenhuis_classifies_as_the_per_pair_formula(seed, monkeypatch):
    # Non-dyadic weights and basis change: the float sums round, and the matrix
    # form [M_i, J] sums in another order than the per-pair formula, so their
    # values differ in the last bits.  Seed 3 sits near the tolerance: its float
    # anti-normal residual is about 1.1e-9 (1.2e-9 per pair) against 1e-9.
    _, (_, S, _) = weighted_heisenberg_4n1(3, [F(1, 3), F(5, 7), F(3, 11)])
    n = S.L.dim
    D = [[F(1, 3 + r) if r == c else ZERO for c in range(n)] for r in range(n)]
    Sc = conjugate_structure(S, mat_mul(random_unimodular(n, random.Random(seed)), D))
    Sf = float_structure(Sc)
    matrix = classify_structure(Sf)
    ref = _nijenhuis_per_pair(Sf.L, Sf.phi_mat())
    scale = max(abs(x) for v in ref.values() for x in v)
    got = nijenhuis_phi(Sf)
    assert got.keys() == ref.keys()
    assert max(abs(a - b) for k in ref for a, b in zip(got[k], ref[k])) <= 1e-10 * scale
    monkeypatch.setattr(acm, "nijenhuis", _nijenhuis_per_pair)
    per_pair = classify_structure(float_structure(Sc))
    assert matrix.tags == per_pair.tags
    assert matrix.tags == ({CLASS_UNCLASSIFIED} if seed == 3 else classify_structure(Sc).tags)
    for key, r in per_pair.residuals.items():
        assert abs(matrix.residuals[key] - r) <= 1e-10 * scale, key


def test_classification_table():
    _, (S1, S2, S3) = h5_structures()
    c1, c2, c3 = map(classify_structure, (S1, S2, S3))
    assert c1.has(CLASS_ANTI_QUASI_SASAKIAN) and not c1.has(CLASS_QUASI_SASAKIAN)
    assert c2.has(CLASS_ANTI_QUASI_SASAKIAN)
    assert c3.has(CLASS_SASAKIAN) and c3.has(CLASS_CONTACT_METRIC)
    assert c3.has(CLASS_QUASI_SASAKIAN)
    # non-unit weights: phi3 stays quasi-Sasakian but not Sasakian
    _, (_, _, T3) = weighted_heisenberg_4n1(2, [1, 2])
    t3 = classify_structure(T3)
    assert t3.has(CLASS_QUASI_SASAKIAN) and not t3.has(CLASS_SASAKIAN)


def test_cokahler_overlap_iff_deta_zero():
    _, (A1, A2, A3) = weighted_heisenberg_4n1(1, [0])
    for S in (A1, A2, A3):
        cls = classify_structure(S)
        assert cls.has(CLASS_COKAHLER)
        assert cls.has(CLASS_QUASI_SASAKIAN) and cls.has(CLASS_ANTI_QUASI_SASAKIAN)
    # nonzero d eta: never both tags
    _, (S1, _, S3) = h5_structures()
    assert not (
        classify_structure(S1).has(CLASS_QUASI_SASAKIAN)
        or classify_structure(S3).has(CLASS_ANTI_QUASI_SASAKIAN)
    )


def test_xi_killing():
    _, (S1, _, _) = h5_structures()
    assert xi_killing_check(S1)
    L = abelian(3)
    phi = zeros(3, 3)
    phi[2][1], phi[1][2] = F(1), F(-1)
    S = AcmStructure.make(L, phi, L.basis_vector(0), L.basis_vector(0), identity(3))
    assert xi_killing_check(S)
    # append [xi, tau1] = tau1: not Killing
    L2 = LieAlgebra.from_brackets(3, {(0, 1): {1: 1}}, check=True)
    S2 = AcmStructure.make(L2, phi, L2.basis_vector(0), L2.basis_vector(0), identity(3))
    assert not xi_killing_check(S2)


def test_levi_civita_values():
    L, (S1, _, _) = h5_structures()
    conn = levi_civita(S1)
    # nabla_tau1 xi = -tau4, nabla_xi xi = 0
    tau1_xi, xi_xi = conn.nablas([(L.basis_vector(1), L.basis_vector(0)),
                                  (L.basis_vector(0), L.basis_vector(0))])
    assert tau1_xi == [0, 0, 0, 0, F(-1)]
    assert vec_is_zero(xi_xi)
    # pairs with no coefficient multiply nothing
    assert conn.nablas([([ZERO] * 5, L.basis_vector(0))]) == [[ZERO] * 5]
    assert conn.nablas([]) == []
    # abelian: everything flat
    Lab = abelian(3)
    phi = zeros(3, 3)
    phi[2][1], phi[1][2] = F(1), F(-1)
    Sab = AcmStructure.make(
        Lab, phi, Lab.basis_vector(0), Lab.basis_vector(0), identity(3)
    )
    cab = levi_civita(Sab)
    for i in range(3):
        for j in range(3):
            assert vec_is_zero(list(gamma_rows(cab)[i][j]))


def test_levi_civita_certificate_catches_corrupted_coefficient(monkeypatch):
    import aqslie.acm as acm

    _, (S1, _, _) = h5_structures()
    real = acm.ConnectionTable

    def corrupting(columns):
        # the table stores numerators over den: one more in a numerator
        rows, n = [list(row) for row in columns.N], len(columns.N[0])
        rows[1 * n + 0][4] += 1  # row 4, column 0 of Gamma_1
        return real(MatOver(rows, columns.den))

    monkeypatch.setattr(acm, "ConnectionTable", corrupting)
    with pytest.raises(InternalContradiction, match="Koszul solve lost"):
        levi_civita(S1)


def test_levi_civita_metric_certificate_names_the_worst_residual(monkeypatch):
    # the same vector added to Gamma_0 b_1 and Gamma_1 b_0 keeps the table
    # torsion-free and breaks metric compatibility in column 1 of g Gamma_0 +
    # Gamma_0^T g, at two rows; a float message names the larger residual.  The
    # table stores numerators over den, so the exact shift is in numerators
    _, (S1, _, _) = h5_structures()
    real = acm.ConnectionTable

    def shifted(shift):
        def make(columns):
            rows, n = [list(row) for row in columns.N], len(columns.N[0])
            for i, j in ((0, 1), (1, 0)):
                for r, x in shift.items():
                    rows[i * n + j][r] += x  # row r, column j of Gamma_i
            return real(MatOver(rows, columns.den))
        return make

    monkeypatch.setattr(acm, "ConnectionTable", shifted({2: 1, 3: 2}))
    with pytest.raises(InternalContradiction, match="Koszul solve lost metric compatibility"):
        levi_civita(S1)
    monkeypatch.setattr(acm, "ConnectionTable", shifted({2: 1e-3, 3: 4e-3}))
    with pytest.raises(ToleranceExceeded, match=r"metric compatibility .* residual 0\.004 "):
        levi_civita(float_structure(S1))


def test_levi_civita_and_nijenhuis_build_one_fraction_per_returned_entry(monkeypatch):
    # the Koszul solve, its certificates and the Nijenhuis bracket run on integer
    # numerators: Fractions are built for the returned entries (n^3 Gamma entries,
    # n^2 (n - 1) / 2 Nijenhuis entries) and for a few n^2 matrices (g^-1, g^-1 / 2)
    n = 13
    h13 = weighted_heisenberg_4n1(3, [1, 2, 3])[1][0]
    S = conjugate_structure(h13, random_unimodular(n, random.Random(7)))
    phi = S.phi_mat()
    real, built = F.__new__, [0]

    def counting(cls, *args, **kwargs):
        built[0] += 1
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", staticmethod(counting))
    levi_civita(S)
    in_levi_civita = built[0]
    nijenhuis(S.L, phi)
    in_nijenhuis = built[0] - in_levi_civita
    monkeypatch.undo()
    assert in_levi_civita <= n**3 + 4 * n * n
    assert in_nijenhuis <= n * n * (n - 1) // 2 + 2 * n * n


def _reference_gamma(S):
    """The Koszul solve with every matrix in its own field, one kernel call per
    step and the 1/2 on each Koszul matrix: the body levi_civita had before it
    ran on numerators.  Float and tower input take the kernels' per-scalar route."""
    L, g = S.L, S.g_mat()
    n = L.dim
    g_inv, ads = inverse(g), [ad_matrix(L, L.basis_vector(i)) for i in range(n)]
    gads = [mat_mul(g, ad) for ad in ads]
    gammas = []
    for i in range(n):
        B = [[gads[j][i][k] for j in range(n)] for k in range(n)]
        C = [[gads[k][j][i] for j in range(n)] for k in range(n)]
        koszul = mat_scale(mat_add(mat_sub(gads[i], B), C), F(1, 2))
        gammas.append(transpose(mat_vecs(g_inv, transpose(koszul))))
    return gammas


def _reference_nijenhuis(L, J):
    """[J, J] as nijenhuis computed it before it ran on numerators."""
    n, cols, out = L.dim, transpose(J), {}
    for i in range(n):
        M = mat_sub(ad_matrix(L, cols[i]), mat_mul(J, ad_matrix(L, L.basis_vector(i))))
        N = transpose(mat_sub(mat_mul(M, J), mat_mul(J, M)))
        out.update(((i, j), N[j]) for j in range(i + 1, n))
    return out


def _su3_structure():
    # J h1 = h2 on the torus and J u = v on each root pair; g = I
    L = su3()
    J = zeros(8, 8)
    for p in range(4):
        J[2 * p + 1][2 * p], J[2 * p][2 * p + 1] = F(1), F(-1)
    return AcmStructure.make(L, J, L.basis_vector(0), L.basis_vector(0), identity(8))


@pytest.mark.parametrize("name", ["f9c1", "sqrt-h9", "su3"])
def test_connection_and_nijenhuis_match_the_reference_bit_for_bit(name):
    # floats by repr (every bit and the sign of zero), tower and rational
    # entries by their canonical repr
    h9 = weighted_heisenberg_4n1(2, [1, 2])[1][0]
    S, tol = {
        "f9c1": lambda: (float_structure(conjugate_structure(
            h9, random_unimodular(9, random.Random(1)))), 1e-6),
        "sqrt-h9": lambda: (weighted_heisenberg_4n1(
            2, [Ext.of_sqrt(2), F(3, 2) * Ext.of_sqrt(5)])[1][0], DEFAULT_TOLERANCE),
        "su3": lambda: (_su3_structure(), DEFAULT_TOLERANCE),
    }[name]()
    set_tolerance(tol)  # f9c1 certifies at 1e-6, as its digest entry does
    try:
        gamma = [[list(map(repr, row)) for row in G] for G in gamma_rows(levi_civita(S))]
        want = [[list(map(repr, row)) for row in G] for G in _reference_gamma(S)]
        got_nij = {k: list(map(repr, v)) for k, v in nijenhuis(S.L, S.phi_mat()).items()}
        want_nij = {k: list(map(repr, v)) for k, v in _reference_nijenhuis(S.L, S.phi_mat()).items()}
    finally:
        set_tolerance(DEFAULT_TOLERANCE)
    assert gamma == want
    assert got_nij == want_nij


def test_levi_civita_rejects_indefinite_metric():
    L, (S1, _, _) = h5_structures()
    g = identity(5)
    g[1][1] = F(-1)
    S_bad = AcmStructure.make(L, S1.phi_mat(), S1.xi_vec(), S1.eta_row(), g)
    with pytest.raises(PreconditionError):
        levi_civita(S_bad)


def test_operators_identities_and_spectrum():
    _, (S1, _, _) = h5_structures()
    pack = operators_A_psi(S1)
    assert pack.ok, pack.residuals
    psi = [list(r) for r in pack.psi]
    psi2 = mat_mul(psi, psi)
    # psi^2 = -I on D (double aqS-Sasakian case)
    for i in range(1, 5):
        for j in range(1, 5):
            assert s_eq(psi2[i][j], F(-1) if i == j else F(0))
    assert vec_is_zero(mat_vec(psi2, S1.xi_vec()))


def test_operators_abelian_vanish():
    _, (A1, _, _) = weighted_heisenberg_4n1(1, [0])
    pack = operators_A_psi(A1)
    assert pack.ok
    assert all(s_is_zero(x) for row in pack.A for x in row)
    assert all(s_is_zero(x) for row in pack.psi for x in row)


def test_operators_identity_failure_on_qs():
    # phi3 is quasi-Sasakian: psi commutes with phi, so the
    # anti-commutation identities must fail (loudly, not silently)
    _, (_, _, S3) = h5_structures()
    pack = operators_A_psi(S3)
    assert not pack.ok
    assert not s_is_zero(pack.residuals["psi_phi_eq_minus_A"])


def test_closedness_suite():
    _, (S1, S2, S3) = h5_structures()
    for S in (S1, S2):
        rep = closedness_suite(S)
        assert rep.ok, rep.residuals
    with pytest.raises(NotAqs):
        closedness_suite(S3)
    # degenerate cokahler case passes with Psi = 0
    _, (A1, _, _) = weighted_heisenberg_4n1(1, [0])
    assert closedness_suite(A1).ok


def test_deta_invariance_for_qs_anti_for_aqs():
    _, (S1, _, S3) = h5_structures()
    deta = bilinear_from_form(ce_d(S1.L, S1.eta_form()))
    phi1, phi3 = S1.phi_mat(), S3.phi_mat()
    n = 5
    for i in range(n):
        for j in range(n):
            pi1 = mat_vec(phi1, S1.L.basis_vector(i))
            pj1 = mat_vec(phi1, S1.L.basis_vector(j))
            lhs1 = _eval_bilinear(deta, pi1, pj1)
            assert s_eq(lhs1, s_neg(deta[i][j]))  # anti-invariance
            pi3 = mat_vec(phi3, S1.L.basis_vector(i))
            pj3 = mat_vec(phi3, S1.L.basis_vector(j))
            lhs3 = _eval_bilinear(deta, pi3, pj3)
            assert s_eq(lhs3, deta[i][j])  # invariance


def _eval_bilinear(M, u, v):
    from aqslie.linalg import bilinear

    return bilinear(u, M, v)


def test_curvature_h5():
    L, (S1, _, _) = h5_structures()
    data = curvature(S1)
    assert s_eq(data.scalar, F(-4))
    for i in range(1, 5):
        K = sectional_curvature(S1, data, S1.xi_vec(), L.basis_vector(i))
        assert s_eq(K, F(1))
    with pytest.raises(PreconditionError):
        sectional_curvature(S1, data, S1.xi_vec(), S1.xi_vec())


def test_curvature_scalar_formula_general_weights():
    # 2-step nilpotent oracle: scalar = -4 * sum(w_r^2)
    for n, w in ((1, [2]), (2, [1, 2]), (2, [1, 3])):
        _, (S1, _, _) = weighted_heisenberg_4n1(n, w)
        data = curvature(S1)
        assert s_eq(data.scalar, F(-4) * sum(F(x) ** 2 for x in w))


def test_curvature_abelian_flat():
    _, (A1, _, _) = weighted_heisenberg_4n1(1, [0])
    data = curvature(A1)
    assert s_eq(data.scalar, F(0))
    assert all(s_is_zero(x) for row in data.ricci for x in row)


def _reference_nabla(gamma, X, Y):
    """nabla_X Y by the per-vector triple loop that curvature replaced."""
    n = len(X)
    out = [ZERO] * n
    for i in range(n):
        if s_is_zero(X[i]):
            continue
        for j in range(n):
            if s_is_zero(Y[j]):
                continue
            c = s_mul(X[i], Y[j])
            for t in range(n):
                out[t] = s_add(out[t], s_mul(c, gamma[i][t][j]))
    return out


def _reference_riemann(S, gamma, X, Y, Z):
    """R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z, full vector,
    gamma the Christoffel rows of S (``gamma_rows``)."""
    out = vec_sub(
        _reference_nabla(gamma, X, _reference_nabla(gamma, Y, Z)),
        _reference_nabla(gamma, Y, _reference_nabla(gamma, X, Z)),
    )
    return vec_sub(out, _reference_nabla(gamma, bracket(S.L, X, Y), Z))


def _reference_curvature(S, gamma):
    """(Ricci, scalar, xi-sectional values or None) from the full-vector
    evaluator, one component kept per call."""
    from aqslie.linalg import inverse

    n, g = S.L.dim, S.g_mat()
    basis = [S.L.basis_vector(i) for i in range(n)]
    ricci = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for a in range(n):
                ricci[i][j] = s_add(ricci[i][j], _reference_riemann(S, gamma, basis[a], basis[i], basis[j])[a])
    g_inv, scalar = inverse(g), ZERO
    for i in range(n):
        for j in range(n):
            scalar = s_add(scalar, s_mul(g_inv[i][j], ricci[i][j]))
    return ricci, scalar, _reference_sectional(S, gamma, S.xi_vec())


def _reference_sectional(S, gamma, X):
    """K(X, b_i) for each i, None on a degenerate plane, from the full-vector
    evaluator, one plane at a time."""
    from aqslie.linalg import bilinear
    from aqslie.scalars import s_div

    g, sectional = S.g_mat(), []
    for Y in (S.L.basis_vector(i) for i in range(S.L.dim)):
        num = bilinear(_reference_riemann(S, gamma, X, Y, Y), g, X)
        den = s_sub(
            s_mul(bilinear(X, g, X), bilinear(Y, g, Y)),
            s_mul(bilinear(X, g, Y), bilinear(X, g, Y)),
        )
        sectional.append(None if s_is_zero(den) else s_div(num, den))
    return sectional


def _same(x, y) -> bool:
    """Bit for bit on floats, value for value on exact scalars."""
    if isinstance(x, float) or isinstance(y, float):
        return type(x) is type(y) and repr(x) == repr(y)
    return x == y


def _differential_cases():
    from aqslie.scalars import parse_scalar

    h9 = weighted_heisenberg_4n1(2, [1, 2])[1][0]
    h9c1 = conjugate_structure(h9, random_unimodular(9, random.Random(1)))
    sqrt_h9 = weighted_heisenberg_4n1(2, [parse_scalar("sqrt(2)"), parse_scalar("3/2*sqrt(5)")])
    sqrt_weights = [parse_scalar(w) for w in ("sqrt(2)", "1", "3/2*sqrt(5)")]
    yield "h5", h5_structures()[1][0], None
    yield "h9", h9, None
    yield "sqrt-h9", sqrt_h9[1][0], None
    yield "h9c1", h9c1, None
    for tol in (1e-7, 1e-6):
        yield f"float-h9c1-tol{tol:g}", float_structure(h9c1), tol
    # rescaled to a rational structure; the qS h7 is not, and runs per scalar
    yield "sqrt-h13", _h13_case("sqrt-h13"), None
    yield "sqrt-h7", weighted_heisenberg_2n1(3, sqrt_weights)[1], None
    yield "float-h13", _h13_case("float-h13"), None


def test_curvature_matches_the_per_vector_evaluator():
    # Ricci from [Gamma_a, Gamma_i] - sum_k c_ai^k Gamma_k, row a only, and the
    # xi-sectional values of the whole basis from one batch, against the full
    # R(X, Y) Z evaluator: the same bits, float terms included
    from aqslie.scalars import DEFAULT_TOLERANCE, get_tolerance, set_tolerance

    old = get_tolerance()
    try:
        for name, S, tol in _differential_cases():
            set_tolerance(tol or DEFAULT_TOLERANCE)
            data = curvature(S)
            gamma = gamma_rows(levi_civita(S))  # read once per structure
            ricci, scalar, sectional = _reference_curvature(S, gamma)
            n = S.L.dim
            assert all(_same(data.ricci[i][j], ricci[i][j]) for i in range(n) for j in range(n)), name
            assert _same(data.scalar, scalar), name
            # the whole basis in one batch, through xi and through a vector off
            # the center that no rescaling maps to a multiple of a basis vector
            basis = [S.L.basis_vector(i) for i in range(n)]
            other = mat_add([basis[1]], [basis[-1]])[0]
            for X, wants in ((S.xi_vec(), sectional), (other, _reference_sectional(S, gamma, other))):
                batch = sectional_curvatures(S, data, X, basis)
                assert len(batch) == n, name
                for i, (got, want) in enumerate(zip(batch, wants)):
                    assert got is None if want is None else _same(got, want), (name, i)
            for i, want in enumerate(sectional):
                if want is None:
                    with pytest.raises(PreconditionError):
                        sectional_curvature(S, data, S.xi_vec(), S.L.basis_vector(i))
                else:
                    got = sectional_curvature(S, data, S.xi_vec(), S.L.basis_vector(i))
                    assert _same(got, want), (name, i)
            if tol:
                assert isinstance(data.scalar, float), name
    finally:
        set_tolerance(old)


def _per_index_product(M, B):
    """M B as one mat_vecs call on the columns of B."""
    return transpose(mat_vecs(M, transpose(B)))


def _reference_koszul(S):
    """The Gamma table as levi_civita solved it before the n Koszul matrices
    became one product: one g^-1 / 2 product per i, on the same numerators."""
    from aqslie.linalg import MatOver
    from aqslie.scalars import ONE

    L, g = S.L, S.g_mat()
    n = L.dim
    ads, (g, half_g_inv) = L.ad_values(g, mat_scale(inverse(g), ONE / 2))
    den = g.den * half_g_inv.den * ads[0].den
    g, half_g_inv, ads = g.N, half_g_inv.N, [ad.N for ad in ads]
    gads = [mat_mul(g, ad) for ad in ads]
    gammas = []
    for i in range(n):
        B = [[gads[j][i][k] for j in range(n)] for k in range(n)]
        C = [[gads[k][j][i] for j in range(n)] for k in range(n)]
        koszul = mat_add(mat_sub(gads[i], B), C)
        gammas.append(MatOver(_per_index_product(half_g_inv, koszul), den).mat())
    return gammas


def _reference_ricci(S):
    """(Ricci, scalar) by the per-a loop curvature ran before the rows a of
    every Gamma_a Gamma_i became one product: n^2 one-row products."""
    from aqslie.linalg import dot

    gamma, n = gamma_rows(levi_civita(S)), S.L.dim
    ads = S.L.ad_values()[0]
    ricci = zeros(n, n)
    for a in range(n):
        rows = [G[a] for G in gamma]
        left = [_per_index_product([gamma[a][a]], G)[0] for G in gamma]
        right = _per_index_product(rows, gamma[a])
        brackets = _per_index_product(transpose(rows), ads[a].mat())
        ricci = mat_add(ricci, mat_sub(mat_sub(left, right), transpose(brackets)))
    flat = lambda M: [x for row in M for x in row]  # noqa: E731
    return ricci, dot(flat(inverse(S.g_mat())), flat(ricci))


def _h13_case(name):
    """The float copy of h13 (as the benchmark's cli-mixed reads it), the
    square-root-weight h13, and h13 conjugated by random_unimodular(13, Random(7))."""
    import aqslie.io as aqio
    from aqslie.scalars import parse_scalar
    from floatcopy import float_doc

    h13 = weighted_heisenberg_4n1(3, [1, 2, 3])[1][0]
    if name == "float-h13":
        return aqio.structure_from_json(float_doc(aqio.structure_to_json(h13)))[0]
    if name == "sqrt-h13":
        weights = [parse_scalar(w) for w in ("sqrt(2)", "1", "3/2*sqrt(5)")]
        return weighted_heisenberg_4n1(3, weights)[1][0]
    return conjugate_structure(h13, random_unimodular(13, random.Random(7)))


@pytest.mark.parametrize("name", ["float-h13", "sqrt-h13", "h13c7"])
def test_whole_table_products_match_the_per_index_loops_at_dim_13(name):
    # the batched Koszul solve and Ricci sum against the loops they replaced,
    # by repr: every float bit and sign of zero, canonical exact values
    S = _h13_case(name)
    rep = lambda M: [list(map(repr, row)) for row in M]  # noqa: E731
    assert [rep(G) for G in gamma_rows(levi_civita(S))] == [rep(G) for G in _reference_koszul(S)]
    data = curvature(S)
    ricci, scalar = _reference_ricci(S)
    assert rep(data.ricci) == rep(ricci)
    assert repr(data.scalar) == repr(scalar)


def test_connection_and_ricci_are_whole_table_products(monkeypatch):
    # on h13, curvature makes at most 2n + 1 product calls of its own (the
    # per-index loops made n^2 + 2n) and levi_civita one Koszul solve and n
    # certificate products besides the n products g ad_i (2n before).  Its
    # heap peak on a conjugated h13 is 0.33-0.35 MB: the per-index loops
    # peaked at 0.41-0.42 MB, and one certificate call for all i, which holds
    # n^3 more entries at once, at 0.40-0.41 MB
    import tracemalloc

    import aqslie.linalg as linalg

    n = 13
    h13 = weighted_heisenberg_4n1(3, [1, 2, 3])[1][0]
    calls = {"mat_vecs": 0, "mat_mul": 0}

    def counting(name, real):
        def kernel(*args):
            calls[name] += 1
            return real(*args)
        return kernel

    for name in calls:
        monkeypatch.setattr(linalg, name, counting(name, getattr(linalg, name)))
    levi_civita(h13)
    assert calls["mat_vecs"] <= n + 1 and calls["mat_mul"] == n
    calls.update(mat_vecs=0, mat_mul=0)
    curvature(h13)
    assert calls["mat_vecs"] <= 2 * n + 1 and calls["mat_mul"] == 0
    monkeypatch.undo()

    S = conjugate_structure(h13, random_unimodular(n, random.Random(7)))
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        levi_civita(S)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 385_000, peak


def test_xi_sectional_curvatures_are_two_table_products(monkeypatch, tmp_path):
    # one curvature command reads all its xi-sectional values off two table
    # products, the inner nablas (Y, Y) and (xi, Y) and the outer ones, and
    # two pairings with g, at any dimension: one plane at a time it made five
    # nabla products per basis vector (45 on h9, 65 on h13)
    import contextlib
    import io

    import aqslie.io as aqio
    from aqslie.cli import main
    from floatcopy import float_doc

    rows, real = [], acm.mat_mul
    monkeypatch.setattr(acm, "mat_mul", lambda A, B: rows.append(len(A)) or real(A, B))
    for n, weights in ((2, [1, 2]), (3, [1, 2, 3])):
        doc = aqio.structure_to_json(weighted_heisenberg_4n1(n, weights)[1][0])
        for key, d in (("exact", doc), ("float", float_doc(doc))):
            path = tmp_path / f"{key}{n}.json"
            path.write_text(aqio.dumps(d), "utf-8")
            rows.clear()
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["curvature", str(path), "--json"]) == 0
            dim = 4 * n + 1
            assert rows == [2 * dim, 3 * dim, dim, dim], (key, n, rows)


def test_ricci_transforms_as_a_bilinear_form():
    # exact and independent of how Ricci is computed: in the basis given by
    # the columns of Q, Ric' = Q^T Ric Q, symmetric, with the same scalar
    h9 = weighted_heisenberg_4n1(2, [1, 2])[1][0]
    qs9 = weighted_heisenberg_2n1(4, [1, 2, 3, 4])[1]
    for S in (h9, qs9):
        base = curvature(S)
        ric = [list(r) for r in base.ricci]
        for seed in (1, 2, 3):
            Q = random_unimodular(9, random.Random(seed))
            data = curvature(conjugate_structure(S, Q))
            conj = [list(r) for r in data.ricci]
            assert mat_eq(conj, mat_mul(transpose(Q), mat_mul(ric, Q)))
            assert mat_eq(conj, transpose(conj))
            assert data.scalar == base.scalar


def test_double_aqs_check():
    _, (S1, S2, S3) = h5_structures()
    assert double_aqs_check(S1, S2, S3).ok
    _, (T1, T2, T3) = weighted_heisenberg_4n1(2, [1, 1])
    assert double_aqs_check(T1, T2, T3).ok
    # non-unit weights: d eta != 2 Phi3
    _, (U1, U2, U3) = weighted_heisenberg_4n1(2, [1, 2])
    rep = double_aqs_check(U1, U2, U3)
    assert not rep.ok
    assert not s_is_zero(rep.residuals["deta_eq_2Phi3"])


def test_double_aqs_check_reads_the_classification_residuals(monkeypatch):
    # d Phi1, d Phi2 and d eta - 2 Phi3 are classification residuals: once
    # classify_structure has run, the double check differentiates nothing
    calls, ce_d = [], exterior.ce_d
    monkeypatch.setattr(exterior, "ce_d", lambda L, w: calls.append(w) or ce_d(L, w))
    _, structures = weighted_heisenberg_4n1(2, [1, 2])
    classes = [classify_structure(S).residuals for S in structures]
    calls.clear()
    rep = double_aqs_check(*structures).residuals
    assert calls == []
    assert [rep["dPhi1"], rep["dPhi2"], rep["deta_eq_2Phi3"]] == [
        classes[0]["d_phi"], classes[1]["d_phi"], classes[2]["contact_metric"]]


def test_a_classification_is_kept_in_each_structure_s_own_basis():
    # classifying the sqrt-weight h13 runs on its rational rescaling; each memo
    # keeps the residuals in its own basis, so neither depends on call order
    from aqslie.acm import rational_rescaling
    from aqslie.scalars import Ext

    def structure():
        return weighted_heisenberg_4n1(3, [Ext.of_sqrt(2), F(1), F(3, 2) * Ext.of_sqrt(5)])[1][0]

    S, T = structure(), structure()
    first = classify_structure(S), classify_structure(rational_rescaling(S).S)
    second = classify_structure(rational_rescaling(T).S), classify_structure(T)
    assert [repr(c) for c in first] == [repr(c) for c in second[::-1]]
    assert str(first[0].residuals["d_eta"]) == "3*sqrt(5)"
    assert first[1].residuals["d_eta"] == 15 and first[0].tags == first[1].tags


def test_double_scalar_curvature_minus_4n():
    for n in (1, 2):
        _, (S1, S2, S3) = weighted_heisenberg_4n1(n, [1] * n)
        assert double_aqs_check(S1, S2, S3).ok
        assert s_eq(curvature(S1).scalar, F(-4 * n))


def test_conjugate_structure_preserves_classification():
    import random as _r

    from aqslie.linalg import random_unimodular

    rng = _r.Random(2)
    _, (S1, _, _) = weighted_heisenberg_4n1(1, [2])
    Q = random_unimodular(5, rng)
    Sc = conjugate_structure(S1, Q)
    assert validate_acm(Sc).passed
    assert classify_structure(Sc).tags == classify_structure(S1).tags
    assert structure_rank(Sc).rank == structure_rank(S1).rank


def test_structure_rank_reads_the_d_eta_of_the_classification(monkeypatch):
    # the class of eta is two ranks of the d eta value classify keeps in the
    # memo, stacked with eta's row: no second d eta product; a zero eta is
    # refused as by rank_of_eta
    S = conjugate_structure(weighted_heisenberg_4n1(2, [1, 2])[1][0],
                            random_unimodular(9, random.Random(3)))
    classify_structure(S)

    def refused(*args):
        raise AssertionError("d eta computed again")

    for module in (acm, exterior):
        monkeypatch.setattr(module, "d_of_covector", refused)
    rr = structure_rank(S)
    assert (rr.rank, rr.parity, rr.is_maximal) == (9, "odd", True)
    monkeypatch.undo()
    assert rr == exterior.rank_of_eta(S.L, S.eta_form())
    Z = AcmStructure.make(S.L, S.phi_mat(), S.xi_vec(), [F(0)] * 9, S.g_mat())
    with pytest.raises(PreconditionError, match="eta must be a nonzero 1-form"):
        structure_rank(Z)


def test_psi_squared_equals_A_squared():
    for n, w in ((1, [1]), (2, [1, 2])):
        _, (S1, _, _) = weighted_heisenberg_4n1(n, w)
        pack = operators_A_psi(S1)
        A = [list(r) for r in pack.A]
        psi = [list(r) for r in pack.psi]
        assert mat_eq(mat_mul(psi, psi), mat_mul(A, A))


def test_center_inside_kernel_of_deta():
    # z(g) is contained in Ker(d eta) coordinatewise, and for maximal rank
    # with Killing xi the kernel is exactly the span of xi
    from aqslie.lie_core import center
    from aqslie.linalg import Subspace, nullspace

    _, (Z1, _, _) = weighted_heisenberg_4n1(2, [1, 0])
    deta = bilinear_from_form(ce_d(Z1.L, Z1.eta_form()))
    ker = Subspace.from_vectors(9, nullspace(deta, 9))
    for b in center(Z1.L).basis:
        assert ker.contains(list(b))
    _, (S1, _, _) = weighted_heisenberg_4n1(2, [1, 2])
    assert xi_killing_check(S1) and structure_rank(S1).is_maximal
    deta_max = bilinear_from_form(ce_d(S1.L, S1.eta_form()))
    ker_max = nullspace(deta_max, 9)
    assert len(ker_max) == 1
    scaled = ker_max[0]
    from aqslie.scalars import s_div

    unit = [s_div(x, scaled[0]) for x in scaled]
    assert all(s_eq(a, b) for a, b in zip(unit, S1.xi_vec()))


def test_rank_mod_4_for_aqs():
    # aqS rank is 4p+1
    for n, w in ((1, [1]), (2, [1, 2]), (2, [1, 0]), (3, [1, 0, 2])):
        _, (S1, _, _) = weighted_heisenberg_4n1(n, w)
        assert classify_structure(S1).has(CLASS_ANTI_QUASI_SASAKIAN)
        assert structure_rank(S1).rank % 4 == 1


@settings(max_examples=60, deadline=None)
@given(st.lists(st.builds(F, st.integers(-9, 9), st.integers(1, 6)), max_size=12))
def test_max_abs_of_fractions_matches_the_per_scalar_route(xs):
    want = ZERO
    for x in xs:
        if s_lt(want, s_abs(x)):
            want = s_abs(x)
    assert max_abs(xs) == want and type(max_abs(xs)) is F
    assert max_abs(iter(xs)) == want
    assert max_abs([]) == ZERO


def test_max_abs_compares_a_tower_maximum_with_no_zero(monkeypatch):
    # each comparison with a tower maximum costs an Ext.sign; a zero cannot
    # raise the maximum, so padding the entries with zeros adds no comparison
    calls = []
    sign = Ext.sign
    monkeypatch.setattr(Ext, "sign", lambda self: calls.append(self) or sign(self))
    counts = []
    for k in (0, 1, 40):
        calls.clear()
        assert str(max_abs([Ext.of_sqrt(2)] + [ZERO] * k)) == "sqrt(2)"
        counts.append(len(calls))
    assert counts == [counts[0]] * 3
