"""Spectral decomposition of psi^2 and the adapted orthonormal frame."""

import random
from fractions import Fraction as F

import pytest

from aqslie.acm import conjugate_structure, operators_A_psi
from aqslie.adapted import adapted_frame
from aqslie.constructors import (
    central_extension,
    invariance_type,
    standard_kahler,
    weighted_heisenberg_4n1,
)
from aqslie.errors import IrrationalSpectrum, NotAqs, NotMaximalRank
from aqslie.exterior import KForm
from aqslie.linalg import bilinear, mat_vec, random_unimodular
from aqslie.scalars import Ext, ONE, ZERO, s_div, s_eq, s_mul, s_str
from oracles import coframe_expansion_check, psi_squared_spectrum


def test_spectrum_values():
    _, (S1, _, _) = weighted_heisenberg_4n1(2, [1, 2])
    assert [(str(e), m) for e, m in psi_squared_spectrum(S1)] == [("-4", 4), ("-1", 4)]
    _, (T1, _, _) = weighted_heisenberg_4n1(1, [1])
    assert [(str(e), m) for e, m in psi_squared_spectrum(T1)] == [("-1", 4)]
    _, (U1, _, _) = weighted_heisenberg_4n1(1, [3])
    assert [(str(e), m) for e, m in psi_squared_spectrum(U1)] == [("-9", 4)]


def test_spectrum_scales_with_weight():
    # psi scales linearly with the weight: w -> c w squares the eigenvalue
    for c in (2, 5):
        _, (S, _, _) = weighted_heisenberg_4n1(1, [c])
        (ev, mult), = psi_squared_spectrum(S)
        assert ev == F(-c * c) and mult == 4


def test_spectrum_rejections():
    _, (Z1, _, _) = weighted_heisenberg_4n1(2, [1, 0])
    with pytest.raises(NotMaximalRank):
        psi_squared_spectrum(Z1)
    _, (_, _, S3) = weighted_heisenberg_4n1(1, [1])
    with pytest.raises(NotAqs):
        psi_squared_spectrum(S3)  # quasi-Sasakian input


def test_failed_operator_identities_are_a_verdict_only_when_exact(monkeypatch):
    # an exact residual says the structure is not aqS; a float one says
    # rounding exceeded the tolerance, and names the worst identity
    import aqslie.adapted as adapted
    from aqslie.acm import OperatorPack
    from aqslie.errors import ToleranceExceeded
    from floatcopy import float_structure

    _, (S, _, _) = weighted_heisenberg_4n1(1, [1])
    for T, failed, error in ((S, {"psi_skew": ONE}, NotAqs),
                             (float_structure(S), {"A_xi": 2e-9, "psi_skew": 5e-9},
                              ToleranceExceeded)):
        pack = operators_A_psi(T)
        monkeypatch.setattr(adapted, "operators_A_psi", lambda T, pack=pack: OperatorPack(
            pack.operators, False, {**pack.residuals, **failed}))
        with pytest.raises(error) as info:
            adapted._psi2_orbits(T)
        assert error is NotAqs or "operator identity psi_skew" in str(info.value)
        assert error is NotAqs or "5e-09" in str(info.value)


def test_adapted_frame_keeps_its_gates(monkeypatch):
    # the classifier builds its exact frames without them; the public frame
    # still refuses a qS input and a phi whose operator identities fail
    import aqslie.adapted as adapted
    from aqslie.acm import OperatorPack

    _, (S, _, S3) = weighted_heisenberg_4n1(1, [1])
    with pytest.raises(NotAqs, match="not AntiQuasiSasakian"):
        adapted_frame(S3)
    pack = operators_A_psi(S)
    monkeypatch.setattr(adapted, "operators_A_psi", lambda T: OperatorPack(
        pack.operators, False, {**pack.residuals, "A_phi_eq_psi": ONE}))
    with pytest.raises(NotAqs, match="operator identities fail"):
        adapted_frame(S)


def test_spectrum_irrational_exact_mode():
    # cross-coupled anti-invariant cocycle on R^8 has a non-splitting
    # characteristic polynomial; exact mode must refuse, not round
    H = standard_kahler(4)
    terms = {(0, 1): 2, (4, 5): -2, (2, 3): 2, (6, 7): -2, (0, 2): 1, (4, 6): -1}
    w = KForm.make(2, 8, {k: F(v) for k, v in terms.items()})
    assert invariance_type(H, w)[0] == "anti-invariant"
    _, S = central_extension(H, w)
    with pytest.raises(IrrationalSpectrum):
        psi_squared_spectrum(S)


def test_frame_native_basis():
    # native h^{4n+1} basis comes back up to within-eigenspace rotation
    _, (S1, _, _) = weighted_heisenberg_4n1(1, [1])
    fr = adapted_frame(S1)
    assert fr.n == 1
    assert [s_str(w) for w in fr.weights] == ["1"]
    for col in fr.columns():
        nonzero = [x for x in col if x != 0]
        assert len(nonzero) == 1 and abs(nonzero[0]) == 1


def test_frame_weights_sorted_descending():
    _, (S1, _, _) = weighted_heisenberg_4n1(3, [2, 1, 3])
    fr = adapted_frame(S1)
    assert [s_str(w) for w in fr.weights] == ["3", "2", "1"]


def test_frame_double_structure_weights_one():
    for n in (1, 2):
        _, (S1, _, _) = weighted_heisenberg_4n1(n, [1] * n)
        fr = adapted_frame(S1)
        assert [s_str(w) for w in fr.weights] == ["1"] * n


def test_frame_relations():
    # e_{n+i} = (1/w) A e_i, e_{2n+i} = phi e_i, e_{3n+i} = (1/w) psi e_i
    _, (S1, _, _) = weighted_heisenberg_4n1(2, [1, 2])
    pack = operators_A_psi(S1)
    fr = adapted_frame(S1)
    n = fr.n
    cols = fr.columns()
    A = [list(r) for r in pack.A]
    psi = [list(r) for r in pack.psi]
    phi = S1.phi_mat()
    for i in range(1, n + 1):
        w = fr.weights[i - 1]
        e = cols[i]
        for got, want in (
            (cols[n + i], [s_div(x, w) for x in mat_vec(A, e)]),
            (cols[2 * n + i], mat_vec(phi, e)),
            (cols[3 * n + i], [s_div(x, w) for x in mat_vec(psi, e)]),
        ):
            assert all(s_eq(a, b) for a, b in zip(got, want))


def test_frame_orthonormal_after_conjugation():
    rng = random.Random(23)
    _, (S1, _, _) = weighted_heisenberg_4n1(2, [1, 2])
    Q = random_unimodular(9, rng)
    Sc = conjugate_structure(S1, Q)
    fr = adapted_frame(Sc)
    assert [s_str(w) for w in fr.weights] == ["2", "1"]
    g = Sc.g_mat()
    cols = fr.columns()
    for a in range(9):
        for b in range(9):
            want = ONE if a == b else ZERO
            assert s_eq(bilinear(cols[a], g, cols[b]), want)
    assert coframe_expansion_check(Sc, fr).ok


def test_frame_weight_multiset_invariant_under_conjugation():
    rng = random.Random(31)
    _, (S1, _, _) = weighted_heisenberg_4n1(2, [2, 3])
    for _ in range(4):
        Q = random_unimodular(9, rng)
        fr = adapted_frame(conjugate_structure(S1, Q))
        assert [s_str(w) for w in fr.weights] == ["3", "2"]


def test_frame_irrational_weight_in_tower():
    # anti-invariant cocycle with |psi^2| eigenvalue 2: weight sqrt(2)
    H = standard_kahler(2)
    w = KForm.make(2, 4, {(0, 1): F(2), (2, 3): F(-2), (0, 3): F(2), (1, 2): F(-2)})
    assert invariance_type(H, w)[0] == "anti-invariant"
    _, S = central_extension(H, w)
    fr = adapted_frame(S)
    assert [s_str(x) for x in fr.weights] == ["sqrt(2)"]
    assert isinstance(fr.weights[0], Ext)
    assert coframe_expansion_check(S, fr).ok


def test_coframe_expansions():
    for n, w in ((1, [1]), (2, [1, 2]), (2, [1, 1]), (1, [5])):
        _, (S1, S2, _) = weighted_heisenberg_4n1(n, w)
        for S in (S1, S2):
            fr = adapted_frame(S)
            rep = coframe_expansion_check(S, fr)
            assert rep.ok, rep.mismatches[:4]


def test_coframe_detects_sign_flip():
    from aqslie.adapted import AdaptedFrame

    _, (S1, _, _) = weighted_heisenberg_4n1(1, [1])
    fr = adapted_frame(S1)
    cols = list(fr.unscaled)
    cols[4] = [s_mul(F(-1), x) for x in cols[4]]  # negate e_{3n+i}
    bad = AdaptedFrame(fr.n, fr.weights, tuple(tuple(c) for c in cols), fr.lengths, fr.squares)
    rep = coframe_expansion_check(S1, bad)
    assert not rep.ok
    names = {name for name, _, _, _ in rep.mismatches}
    assert "Psi" in names and "A" in names


def test_coframe_rejects_non_maximal():
    _, (Z1, _, _) = weighted_heisenberg_4n1(2, [1, 0])
    _, (S1, _, _) = weighted_heisenberg_4n1(1, [1])
    fr = adapted_frame(S1)
    with pytest.raises(NotMaximalRank):
        coframe_expansion_check(Z1, fr)


def test_degenerate_multiplicity_iteration():
    # equal weights: one eigenvalue of multiplicity 8, two quadruples
    _, (S1, _, _) = weighted_heisenberg_4n1(2, [2, 2])
    spec = psi_squared_spectrum(S1)
    assert [(str(e), m) for e, m in spec] == [("-4", 8)]
    fr = adapted_frame(S1)
    assert [s_str(w) for w in fr.weights] == ["2", "2"]
    assert coframe_expansion_check(S1, fr).ok


def _orbit_inputs() -> dict:
    """name -> (M, g, maps) as the normal forms split them: psi^2 with (A, phi, psi)
    on conjugated aqS h^13, A = phi psi with phi on conjugated qS h^9, each with
    distinct weights and with a repeated one (two or three orbits in one eigenspace)."""
    from aqslie.acm import numerator_view
    from aqslie.classifier import operators_A_psi_qs
    from aqslie.constructors import weighted_heisenberg_2n1

    out = {}
    for weights, seed in (([1, 2, 3], 7), ([2, 2, 1], 4)):
        S = conjugate_structure(weighted_heisenberg_4n1(3, weights)[1][0],
                                random_unimodular(13, random.Random(seed)))
        (A, psi), v = operators_A_psi(S).operators, numerator_view(S)
        out[f"aqs13-{weights}"] = psi @ psi, v.g, [A, v.phi, psi]
    for weights, seed in (([1, 2, 3, 4], 5), ([3, 3, 3, 1], 2)):
        S = conjugate_structure(weighted_heisenberg_2n1(4, weights)[1],
                                random_unimodular(9, random.Random(seed)))
        out[f"qs9-{weights}"] = operators_A_psi_qs(S), numerator_view(S).g, [numerator_view(S).phi]
    return out


def test_orbits_by_level_are_the_orbits_made_one_at_a_time():
    # the same eigenvalues, pivots and images, exact and as float bits
    from aqslie.adapted import eigen_orbits
    from aqslie.linalg import MatOver
    from oracles import per_orbit_eigen_orbits

    for name, (M, g, maps) in _orbit_inputs().items():
        assert repr(eigen_orbits(M, g, maps)) == repr(per_orbit_eigen_orbits(M, g, maps)), name
        floats = [MatOver([[float(x) for x in row] for row in X.mat()]) for X in (M, g, *maps)]
        assert repr(eigen_orbits(*floats[:2], floats[2:])) == repr(
            per_orbit_eigen_orbits(*floats[:2], floats[2:])), name


def test_orbit_images_are_one_product_per_map_and_level(monkeypatch):
    from aqslie.adapted import eigen_orbits
    from aqslie.tower import TowerOver

    calls = []
    real = TowerOver.on_rows
    monkeypatch.setattr(TowerOver, "on_rows", lambda self, V: calls.append(len(V.parts[1]))
                        or real(self, V))
    counts = {}
    for name, (M, g, maps) in _orbit_inputs().items():
        calls.clear()
        eigen_orbits(M, g, maps)
        counts[name] = calls[:]
    # one level of three pivots for h^13, of four for h^9; a weight of multiplicity
    # m adds m - 1 levels, each with the pivots of the eigenspaces that still grow
    assert counts == {"aqs13-[1, 2, 3]": [3, 3, 3], "aqs13-[2, 2, 1]": [2, 2, 2, 1, 1, 1],
                      "qs9-[1, 2, 3, 4]": [4], "qs9-[3, 3, 3, 1]": [2, 1, 1]}
