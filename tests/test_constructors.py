"""Factories: weighted Heisenberg families, Kahler data, central extensions."""

from fractions import Fraction as F

import pytest

from aqslie.acm import (
    CLASS_ANTI_QUASI_SASAKIAN,
    CLASS_COKAHLER,
    CLASS_QUASI_SASAKIAN,
    CLASS_SASAKIAN,
    classify_structure,
    closedness_suite,
    double_aqs_check,
    structure_rank,
    validate_acm,
)
from aqslie.constructors import (
    Cocycle,
    abelian,
    central_extension,
    invariance_type,
    kahler,
    shipped_algebras,
    shipped_aqs_structures,
    standard_kahler,
    su2,
    su2_plus_abelian,
    su3,
    weighted_heisenberg_2n1,
    weighted_heisenberg_4n1,
)
from aqslie.errors import DimensionMismatch, PreconditionError
from aqslie.exterior import KForm, ce_d, form_scale, rank_of_eta
from aqslie.lie_core import bracket, jacobi_check, killing_form, lower_central_series
from aqslie.linalg import identity, mat_eq, mat_mul, rank
from aqslie.scalars import s_eq, s_neg
from oracles import form_add, form_eq


def test_4n1_brackets_match_displayed_formula():
    for n, w in ((1, [1]), (2, [1, 2]), (3, [2, 0, 5])):
        L, _ = weighted_heisenberg_4n1(n, w)
        for r in range(1, n + 1):
            b1 = bracket(L, L.basis_vector(r), L.basis_vector(3 * n + r))
            b2 = bracket(L, L.basis_vector(n + r), L.basis_vector(2 * n + r))
            assert b1[0] == 2 * F(w[r - 1]) and b2[0] == 2 * F(w[r - 1])
            assert all(x == 0 for x in b1[1:]) and all(x == 0 for x in b2[1:])


def test_4n1_structures_validate_and_relate():
    for n, w in ((1, [1]), (2, [1, 2])):
        _, (S1, S2, S3) = weighted_heisenberg_4n1(n, w)
        for S in (S1, S2, S3):
            assert validate_acm(S).passed
        p1, p2, p3 = S1.phi_mat(), S2.phi_mat(), S3.phi_mat()
        assert mat_eq(mat_mul(p1, p2), p3)
        assert mat_eq(mat_mul(p2, p1), [[s_neg(x) for x in r] for r in p3])
        assert closedness_suite(S1).ok and closedness_suite(S2).ok


def test_4n1_classification_and_sasakian_iff_unit_weights():
    _, (S1, S2, S3) = weighted_heisenberg_4n1(1, [1])
    assert classify_structure(S3).has(CLASS_SASAKIAN)
    assert double_aqs_check(S1, S2, S3).ok
    _, (_, _, T3) = weighted_heisenberg_4n1(2, [1, 2])
    assert not classify_structure(T3).has(CLASS_SASAKIAN)
    assert classify_structure(T3).has(CLASS_QUASI_SASAKIAN)


def test_4n1_zero_weights_legal_and_cokahler():
    L, (S1, S2, S3) = weighted_heisenberg_4n1(1, [0])
    assert L.brackets == ()
    for S in (S1, S2, S3):
        assert classify_structure(S).has(CLASS_COKAHLER)


def test_2n1_family():
    L, S = weighted_heisenberg_2n1(1, [1])
    assert classify_structure(S).has(CLASS_SASAKIAN)
    L2, S2 = weighted_heisenberg_2n1(2, [1, 3])
    cls = classify_structure(S2)
    assert cls.has(CLASS_QUASI_SASAKIAN) and not cls.has(CLASS_SASAKIAN)
    assert structure_rank(S2).is_maximal
    # d eta matches the quasi-Sasakian display
    deta = ce_d(L2, S2.eta_form())
    assert s_eq(deta.coeff((1, 3)), F(-2))
    assert s_eq(deta.coeff((2, 4)), F(-6))
    L0, S0 = weighted_heisenberg_2n1(1, [0])
    assert classify_structure(S0).has(CLASS_COKAHLER)


def test_weights_length_checked():
    with pytest.raises(DimensionMismatch):
        weighted_heisenberg_4n1(2, [1])
    with pytest.raises(PreconditionError):
        weighted_heisenberg_4n1(0, [])


def test_standard_kahler_valid():
    H = standard_kahler(2)
    Om = H.omega()
    assert invariance_type(H, Om)[0] == "invariant"
    assert ce_d(H.L, Om).is_zero()


def test_kahler_validation_rejects_bad_data():
    L = abelian(4)
    J = [[F(0)] * 4 for _ in range(4)]  # J^2 != -I
    with pytest.raises(PreconditionError):
        kahler(L, J, identity(4))
    H = standard_kahler(2)
    k_bad = identity(4)
    k_bad[0][0] = F(2)  # not Hermitian for J (pairs 0/2 differ)
    with pytest.raises(PreconditionError):
        kahler(H.L, H.J_mat(), k_bad)


def test_invariance_decomposition_exact():
    H = standard_kahler(2)
    mixed = KForm.make(2, 4, {(0, 1): F(3), (2, 3): F(1), (0, 2): F(5)})
    tag, inv, anti = invariance_type(H, mixed)
    assert tag == "neither"
    assert form_eq(form_add(inv, anti), mixed)
    assert invariance_type(H, inv)[0] == "invariant"
    assert invariance_type(H, anti)[0] == "anti-invariant"


def test_cocycle_requires_closedness():
    # on a non-abelian Kahler algebra a non-closed 2-form must be rejected;
    # over the abelian R^4 every 2-form is closed, so check the happy path
    H = standard_kahler(2)
    c = Cocycle.on(H, KForm.make(2, 4, {(0, 1): F(1), (2, 3): F(-1)}))
    assert c.invariance == "anti-invariant"


def test_central_extension_trichotomy():
    H = standard_kahler(2)
    Om = H.omega()
    # anti-invariant nondegenerate: anti-quasi-Sasakian of maximal rank
    w_anti = KForm.make(2, 4, {(0, 1): F(2), (2, 3): F(-2)})
    _, S_anti = central_extension(H, w_anti)
    cls = classify_structure(S_anti)
    assert cls.has(CLASS_ANTI_QUASI_SASAKIAN)
    assert structure_rank(S_anti).is_maximal
    # invariant at the Sasakian normalization d eta = 2 Phi: omega = 2 Omega
    _, S_sas = central_extension(H, form_scale(Om, F(2)))
    assert classify_structure(S_sas).has(CLASS_SASAKIAN)
    # omega = Omega itself is quasi-Sasakian (d eta = Phi)
    _, S_qs = central_extension(H, Om)
    cq = classify_structure(S_qs)
    assert cq.has(CLASS_QUASI_SASAKIAN) and not cq.has(CLASS_SASAKIAN)
    # zero cocycle: cokahler direct product
    _, S_cok = central_extension(H, KForm.make(2, 4, {}))
    assert classify_structure(S_cok).has(CLASS_COKAHLER)


def test_central_extension_deta_equals_cocycle():
    H = standard_kahler(2)
    w = KForm.make(2, 4, {(0, 1): F(3), (2, 3): F(-3)})
    L, S = central_extension(H, w)
    deta = ce_d(L, S.eta_form())
    for (i, j), c in w.coeffs:
        assert s_eq(deta.coeff((i, j)), c)
    # d eta(xi, .) = 0
    assert all(s_eq(deta.coeff((i, 4)), F(0)) for i in range(4))


def test_extension_rank_formula():
    # rank of eta = 1 + rank(omega) as a bilinear form
    H = standard_kahler(2)
    cases = [
        (KForm.make(2, 4, {}), 0),
        (KForm.make(2, 4, {(0, 1): F(2), (2, 3): F(-2)}), 4),
        (KForm.make(2, 4, {(0, 1): F(1)}), 2),
    ]
    from aqslie.exterior import bilinear_from_form

    for w, rank_w in cases:
        assert rank(bilinear_from_form(w)) == rank_w
        L, S = central_extension(H, w)
        assert rank_of_eta(L, S.eta_form()).rank == 1 + rank_w


def test_extension_from_anti_invariant_is_heisenberg():
    # classifier round trip: the extension is isomorphic to some h^{4n+1}_w
    from aqslie.classifier import classify_nilpotent_aqs

    H = standard_kahler(2)
    w = KForm.make(2, 4, {(0, 1): F(-4), (2, 3): F(4)})
    _, S = central_extension(H, w)
    iso = classify_nilpotent_aqs(S)
    assert iso.family == "4n+1" and [str(x) for x in iso.weights] == ["2"]


def test_su2_su3_models():
    g2, g3 = su2(), su3()
    assert jacobi_check(g2) == [] and jacobi_check(g3) == []
    assert killing_form(g2).definiteness == "negative_definite"
    assert killing_form(g3).definiteness == "negative_definite"
    assert not lower_central_series(su2_plus_abelian()).is_nilpotent


def test_shipped_registries():
    reg = shipped_algebras()
    assert set(reg) == {
        "abelian5",
        "h3",
        "h5_qs_1_3",
        "h5_1",
        "h9_1_2",
        "h13_1_2_3",
        "su2",
        "su3",
    }
    for L in reg.values():
        assert jacobi_check(L) == []
    structures = shipped_aqs_structures()
    assert len(structures) == 10
    for S in structures.values():
        assert classify_structure(S).has(CLASS_ANTI_QUASI_SASAKIAN)
