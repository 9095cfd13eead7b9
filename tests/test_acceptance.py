"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line each.  All checks are exact (tolerance 0) in exact mode;
the suite runs at desk scale (dims <= 13).

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print; without -s pytest shows them for failing criteria only.
"""

import functools
import json
import random
from fractions import Fraction as F
from itertools import combinations

import pytest

import aqslie.io as aqio
from aqslie.acm import (
    CLASS_ANTI_QUASI_SASAKIAN,
    CLASS_COKAHLER,
    CLASS_QUASI_SASAKIAN,
    CLASS_SASAKIAN,
    classify_structure,
    closedness_suite,
    conjugate_structure,
    curvature,
    operators_A_psi,
    sectional_curvature,
    structure_rank,
)
from aqslie.classifier import classify_nilpotent_aqs
from aqslie.cli import main
from aqslie.constructors import (
    central_extension,
    invariance_type,
    shipped_algebras,
    shipped_aqs_structures,
    standard_kahler,
    su2,
    su3,
    weighted_heisenberg_4n1,
)
from aqslie.exterior import (
    KForm,
    bilinear_from_form,
    ce_betti,
    ce_bettis,
    ce_d,
    form_scale,
    one_scalar_form,
    wedge,
)
from aqslie.invariant_forms import (
    centralizer_of_torus,
    extension_by_zero_derivation_check,
    invariant_closed_2forms,
    moment_element,
    reductive_split,
    synthesize_j_dim2,
    type_11_check,
)
from aqslie.linalg import (
    Subspace,
    bilinear,
    inverse,
    mat_eq,
    mat_mul,
    mat_vec,
    random_unimodular,
    rank,
    transpose,
    vec_eq,
)
from aqslie.lie_core import bracket, killing_form
from aqslie.scalars import s_eq, s_is_zero, s_mul, s_neg, s_str


def criterion(number, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} [{title}]: FAIL")
                raise
            print(f"ACCEPTANCE {number} [{title}]: PASS")

        return wrapper

    return deco


@criterion(1, "curvature constants s = -4n, K(xi, .) = 1")
def test_criterion_1_curvature_constants():
    for n in (1, 2):
        L, (S1, _, _) = weighted_heisenberg_4n1(n, [1] * n)
        data = curvature(S1)
        assert data.scalar == F(-4 * n)  # exact, tolerance 0
        for i in range(1, 4 * n + 1):
            K = sectional_curvature(S1, data, S1.xi_vec(), L.basis_vector(i))
            assert K == F(1)


@criterion(2, "classification table and rank 4p+1")
def test_criterion_2_classification_table():
    rng = random.Random(2024)

    def random_weight():
        return F(rng.choice([1, 2, 3, 5, 7]), rng.choice([1, 2, 3]))

    cases = []
    for n in (1, 2, 3):
        for _ in range(2):
            cases.append((n, [random_weight() for _ in range(n)]))
        cases.append((n, [F(1)] * n))  # Sasakian witness
    cases.append((2, [F(1), F(0)]))  # zero-weight block
    cases.append((3, [F(2), F(0), F(1)]))
    for n, w in cases:
        _, (S1, S2, S3) = weighted_heisenberg_4n1(n, w)
        p = sum(1 for x in w if x != 0)
        if p > 0:
            assert classify_structure(S1).has(CLASS_ANTI_QUASI_SASAKIAN)
            assert classify_structure(S2).has(CLASS_ANTI_QUASI_SASAKIAN)
            assert classify_structure(S3).has(CLASS_QUASI_SASAKIAN)
        else:
            assert classify_structure(S1).has(CLASS_COKAHLER)
        is_sas = classify_structure(S3).has(CLASS_SASAKIAN)
        assert is_sas == all(x == 1 for x in w)
        for S in (S1, S2, S3):
            assert structure_rank(S).rank == 4 * p + 1  # exact


@criterion(3, "identity suite and d o d = 0")
def test_criterion_3_identity_suite():
    rng = random.Random(99)
    # operator identities, closedness, d eta anti-invariance on every
    # constructed aqS structure
    structures = dict(shipped_aqs_structures())
    for trial in range(2):
        n = rng.choice([1, 2])
        w = [F(rng.randrange(1, 6)) for _ in range(n)]
        _, (s1, s2, _) = weighted_heisenberg_4n1(n, w)
        structures[f"random_{trial}"] = s1 if trial % 2 == 0 else s2
    for name, S in structures.items():
        pack = operators_A_psi(S)
        assert pack.ok, (name, pack.residuals)  # eq A phi = psi = -phi A etc.
        rep = closedness_suite(S)  # dA = 0, dPhi = 0, d eta = 2 Psi
        assert rep.ok, (name, rep.residuals)
        deta = bilinear_from_form(ce_d(S.L, S.eta_form()))
        phi = S.phi_mat()
        dim = S.L.dim
        for i in range(dim):
            for j in range(i + 1, dim):
                lhs = bilinear(
                    mat_vec(phi, S.L.basis_vector(i)), deta, mat_vec(phi, S.L.basis_vector(j))
                )
                assert s_eq(lhs, s_neg(deta[i][j]))
    # d o d = 0 on 200 randomized forms per shipped algebra
    for name, L in shipped_algebras().items():
        for _ in range(200):
            degree = rng.randrange(0, min(L.dim, 5))
            terms = {}
            pool = list(combinations(range(L.dim), degree))
            for idx in rng.sample(pool, k=min(len(pool), rng.randrange(1, 6))):
                terms[idx] = F(rng.randrange(-9, 10), rng.randrange(1, 5))
            w = KForm.make(degree, L.dim, terms)
            assert ce_d(L, ce_d(L, w)).is_zero(), name


@criterion(4, "classifier round trip under 100 conjugations")
def test_criterion_4_classifier_round_trip():
    rng = random.Random(7)
    fixtures = [
        (2, [1, 2], 50),
        (3, [1, 2, 3], 50),
    ]
    for n, w, reps in fixtures:
        _, (S1, _, _) = weighted_heisenberg_4n1(n, w)
        expected = sorted((F(x) for x in w), reverse=True)
        for _ in range(reps):
            Q = random_unimodular(4 * n + 1, rng)
            Sc = conjugate_structure(S1, Q)
            iso = classify_nilpotent_aqs(Sc)  # re-verifies F internally
            assert list(iso.weights) == expected  # exact weight multiset
            # pushed-forward tensors match the target entry-wise
            Fm = iso.F_mat()
            F_inv = inverse(Fm)
            target_L, (t1, t2, t3) = weighted_heisenberg_4n1(iso.n, list(iso.weights))
            assert mat_eq(mat_mul(Fm, mat_mul(Sc.phi_mat(), F_inv)), t2.phi_mat())
            assert vec_eq(mat_vec(Fm, Sc.xi_vec()), t2.xi_vec())
            assert vec_eq(mat_vec(transpose(Fm), t2.eta_row()), Sc.eta_row())
            assert mat_eq(
                mat_mul(transpose(Fm), mat_mul(t2.g_mat(), Fm)), Sc.g_mat()
            )
            for a in range(Sc.L.dim):
                for b in range(a + 1, Sc.L.dim):
                    lhs = mat_vec(Fm, bracket(Sc.L, Sc.L.basis_vector(a), Sc.L.basis_vector(b)))
                    rhs = bracket(
                        target_L,
                        [Fm[r][a] for r in range(Sc.L.dim)],
                        [Fm[r][b] for r in range(Sc.L.dim)],
                    )
                    assert vec_eq(lhs, rhs)


@criterion(5, "central extension dichotomy on R^4")
def test_criterion_5_central_extension_dichotomy():
    H = standard_kahler(2)
    # anti-invariant cocycle: anti-quasi-Sasakian
    w_anti = KForm.make(2, 4, {(0, 1): F(2), (2, 3): F(-2)})
    assert invariance_type(H, w_anti)[0] == "anti-invariant"
    _, S_anti = central_extension(H, w_anti)
    assert classify_structure(S_anti).has(CLASS_ANTI_QUASI_SASAKIAN)
    # invariant cocycle on the Sasakian ray: with the fixed conventions
    # d eta = omega and Sasakian iff d eta = 2 Phi, the ray is omega = 2 Omega
    Om = H.omega()
    _, S_sas = central_extension(H, form_scale(Om, F(2)))
    assert classify_structure(S_sas).has(CLASS_SASAKIAN)
    assert invariance_type(H, Om)[0] == "invariant"
    _, S_qs = central_extension(H, Om)
    assert classify_structure(S_qs).has(CLASS_QUASI_SASAKIAN)
    # zero cocycle: cokahler
    _, S_cok = central_extension(H, KForm.make(2, 4, {}))
    assert classify_structure(S_cok).has(CLASS_COKAHLER)


@criterion(6, "flag-manifold shadow: invariant 2-forms are (1,1)")
def test_criterion_6_flag_manifold_shadow():
    # su(2)/t
    g2 = su2()
    R2 = reductive_split(
        g2, centralizer_of_torus(g2, Subspace.from_vectors(3, [g2.basis_vector(2)]))
    )
    sols2 = invariant_closed_2forms(R2)
    assert len(sols2) == 1
    # su(3)/t^2
    g3 = su3()
    R3 = reductive_split(
        g3,
        centralizer_of_torus(
            g3, Subspace.from_vectors(8, [g3.basis_vector(0), g3.basis_vector(1)])
        ),
    )
    sols3 = invariant_closed_2forms(R3)
    assert len(sols3) == 2
    assert len(R3.center) == 2  # = dim z(k)
    # moment elements with exact round trip
    for g, R, sols in ((g2, R2, sols2), (g3, R3, sols3)):
        B = [list(r) for r in killing_form(g).matrix]
        Zs = []
        for w in sols:
            Z = moment_element(R, w)
            Zs.append(Z)
            m_cols = R.m_cols()
            for a in range(R.m.dim):
                for b in range(a + 1, R.m.dim):
                    got = bilinear(bracket(g, m_cols[a], m_cols[b]), B, Z)
                    assert s_eq(got, w.coeff((a, b)))  # exact round trip
            assert extension_by_zero_derivation_check(R, w, Z)
        assert rank([list(z) for z in Zs]) == len(sols)  # injective
    # anti-invariant projection = {0} for the verified J
    J2 = synthesize_j_dim2(R2)[0]
    rep2 = type_11_check(R2, sols2, J2)
    assert rep2.j_ok and rep2.invariant and rep2.anti_projection_zero
    J3 = [[F(0)] * 6 for _ in range(6)]
    for p in range(3):
        J3[2 * p + 1][2 * p] = F(1)
        J3[2 * p][2 * p + 1] = F(-1)
    rep3 = type_11_check(R3, sols3, J3)
    assert rep3.j_ok and rep3.invariant and rep3.anti_projection_zero


@criterion(7, "Betti proxy: b2 and Poincare duality")
def test_criterion_7_betti_proxy():
    h5 = weighted_heisenberg_4n1(1, [1])[0]
    assert ce_betti(h5, 2) == 5  # frozen from the rank oracle
    # b2 >= 1 for every shipped maximal-rank aqS algebra
    for name, S in shipped_aqs_structures().items():
        if structure_rank(S).is_maximal:
            assert ce_betti(S.L, 2) >= 1, name
    # Poincare duality b_k = b_{dim-k} on shipped nilpotent examples, in
    # every degree
    reg = shipped_algebras()
    for name in ["abelian5", "h3", "h5_qs_1_3", "h5_1", "h9_1_2", "h13_1_2_3"]:
        L = reg[name]
        bettis = list(ce_bettis(L, range(L.dim + 1)).values())
        assert bettis == bettis[::-1], (name, bettis)


@criterion(8, "negative controls and exit-code taxonomy")
def test_criterion_8_negative_controls(tmp_path, capsys):
    from aqslie.acm import AcmStructure
    from aqslie.constructors import su2_plus_abelian
    from aqslie.linalg import identity, zeros

    # su(2) (+) R^2 input: NotNilpotent, exit family precondition (3)
    L = su2_plus_abelian()
    phi = zeros(5, 5)
    phi[2][1], phi[1][2] = F(1), F(-1)
    phi[4][3], phi[3][4] = F(1), F(-1)
    S = AcmStructure.make(L, phi, L.basis_vector(0), L.basis_vector(0), identity(5))
    spath = tmp_path / "su2r2.json"
    spath.write_text(aqio.dumps(aqio.structure_to_json(S)), "utf-8")
    code = main(["classify", str(spath), "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 3 and out["error"]["code"] == "NotNilpotent"
    # zero-weight Heisenberg: NotMaximalRank, exit 3
    _, (Z1, _, _) = weighted_heisenberg_4n1(2, [1, 0])
    zpath = tmp_path / "zero.json"
    zpath.write_text(aqio.dumps(aqio.structure_to_json(Z1)), "utf-8")
    code = main(["classify", str(zpath), "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 3 and out["error"]["code"] == "NotMaximalRank"
    # Jacobi violator: parse-family rejection, exit 2
    bad = {
        "kind": "lie_algebra",
        "mode": "exact",
        "dim": 3,
        "basis_names": ["a", "b", "c"],
        "brackets": [
            {"i": 1, "j": 2, "coeffs": {"3": "1"}},
            {"i": 2, "j": 3, "coeffs": {"2": "1"}},
        ],
    }
    bpath = tmp_path / "bad.json"
    bpath.write_text(aqio.dumps(bad), "utf-8")
    code = main(["check", str(bpath), "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 2 and out["error"]["family"] == "parse"


def test_wedge_oracle_agrees_with_matrix_rank_route():
    # dual-route check kept alongside the acceptance criteria: the wedge
    # oracle and the fraction-free matrix route must agree on rank
    from aqslie.exterior import rank_of_eta, theta

    for n, w in ((1, [1]), (2, [1, 2]), (2, [1, 0])):
        L = weighted_heisenberg_4n1(n, w)[0]
        eta = theta(0, L.dim)
        deta = ce_d(L, eta)
        power = one_scalar_form(L.dim)
        m = 0
        while True:
            nxt = wedge(power, deta)
            if nxt.is_zero():
                break
            power, m = nxt, m + 1
        rr = rank_of_eta(L, eta)
        assert rr.largest_power == m
        odd = not wedge(eta, power).is_zero()
        assert (rr.parity == "odd") == odd
