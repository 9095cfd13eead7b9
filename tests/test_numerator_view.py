"""The classify stages on one numerator view per structure.

A rational structure keeps phi, g, xi, eta and the basis ad matrices as
``tower.TowerOver`` values of the one class 1, integers over a denominator
that each value carries (``acm.numerator_view``), and the stages pass values
to each other; tower structures hold a class per radicand, and float
structures are ``linalg.MatOver`` values of themselves over 1.  The stages are
compared by repr with the formulas they ran before (``oracles.stage_*``), on
rational structures, conjugated ones (one of them over a denominator of 4),
square-root weights and float copies.
"""

import random
from fractions import Fraction

import pytest

import aqslie.acm as acm
import aqslie.adapted as adapted
import aqslie.exterior as exterior
import aqslie.linalg as linalg
from aqslie.acm import (
    classify_structure,
    closedness_suite,
    conjugate_structure,
    curvature,
    levi_civita,
    nijenhuis,
    operators_A_psi,
    psi_matrix,
    validate_acm,
    xi_killing_check,
)
from aqslie.adapted import _psi2_orbits, adapted_frame
from aqslie.classifier import classify_nilpotent_aqs
from aqslie.constructors import weighted_heisenberg_4n1
from aqslie.errors import InternalContradiction
from aqslie.linalg import random_unimodular
from aqslie.scalars import DEFAULT_TOLERANCE, Ext, set_tolerance
from aqslie.tower import TowerOver
from floatcopy import float_structure
from oracles import (
    gamma_rows,
    nijenhuis_loop,
    stage_classification,
    stage_connection,
    stage_frame,
    stage_isomorphism,
    stage_operators,
    stage_ricci,
    stage_spectrum,
    stage_validation,
)


def _h(n):
    return weighted_heisenberg_4n1(n, [1, 2, 3][:n])[1][0]


CASES = {
    "h9": lambda: _h(2),
    "h13": lambda: _h(3),
    "h9c": lambda: conjugate_structure(_h(2), random_unimodular(9, random.Random(3))),
    "h13c": lambda: conjugate_structure(_h(3), random_unimodular(13, random.Random(7))),
    # a change of basis of determinant 1/2: the tensors are over 4, not 1
    "h9h": lambda: conjugate_structure(_h(2), [
        [x / 2 if i == 0 else x for x in row]
        for i, row in enumerate(random_unimodular(9, random.Random(3)))]),
    "sqrt-h13": lambda: weighted_heisenberg_4n1(
        3, [Ext.of_sqrt(2), Fraction(1), Fraction(3, 2) * Ext.of_sqrt(5)])[1][0],
    "float-h9": lambda: float_structure(_h(2)),
    "float-h13": lambda: float_structure(_h(3)),
    "float-h9c": lambda: float_structure(
        conjugate_structure(_h(2), random_unimodular(9, random.Random(1)))),
}


def rep(x):
    """repr all the way down: tuples and lists of scalars, dict values."""
    if isinstance(x, dict):
        return {k: rep(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [rep(v) for v in x]
    return repr(x)


@pytest.mark.parametrize("name", sorted(CASES))
def test_stages_match_the_formulas_they_replaced(name):
    S = CASES[name]()
    # the float conjugation certifies at 1e-6, as its digest entry f9c1 does
    set_tolerance(1e-6 if name == "float-h9c" else DEFAULT_TOLERANCE)
    try:
        A, psi, op_residuals = stage_operators(S)
        assert rep(validate_acm(S).residuals) == rep(stage_validation(S))
        assert rep(classify_structure(S).residuals) == rep(stage_classification(S))
        assert rep(gamma_rows(levi_civita(S))) == rep(stage_connection(S))
        assert rep(psi_matrix(S).mat()) == rep(psi)
        pack = operators_A_psi(S)
        assert rep(pack.A) == rep(A) and rep(pack.psi) == rep(psi)
        assert rep(pack.residuals) == rep(op_residuals)
        assert rep(_psi2_orbits(S)) == rep(stage_spectrum(S))
        frame = adapted_frame(S)
        assert rep((frame.weights, frame.unscaled, frame.scales)) == rep(stage_frame(S))
        assert rep(classify_nilpotent_aqs(S).F) == rep(stage_isomorphism(S))
    finally:
        set_tolerance(DEFAULT_TOLERANCE)


def _weighted_h9c():
    # weights 1/3 and 5/7 put the ad matrices over 21, not 1
    S = weighted_heisenberg_4n1(2, [Fraction(1, 3), Fraction(5, 7)])[1][0]
    return conjugate_structure(S, random_unimodular(9, random.Random(3)))


RICCI_CASES = {
    **{name: CASES[name] for name in ("h13c", "sqrt-h13", "float-h13", "float-h9c")},
    "h9wc": _weighted_h9c,
}


@pytest.mark.parametrize("name", sorted(RICCI_CASES))
def test_ricci_on_numerators_matches_the_gamma_loop(name):
    S = RICCI_CASES[name]()
    set_tolerance(1e-7 if name == "float-h9c" else DEFAULT_TOLERANCE)
    try:
        ricci, scalar = stage_ricci(S)
        data = curvature(S)
        assert rep(data.ricci) == rep(ricci) and rep(data.scalar) == rep(scalar)
    finally:
        set_tolerance(DEFAULT_TOLERANCE)


def test_exact_curvature_reads_no_divided_back_table():
    # neither Ricci nor the nablas of the sectional curvatures divide the
    # connection table back: only what they return leaves it
    class Unread(TowerOver):
        def mat(self, den=None):
            raise AssertionError("connection table divided back")

    for name in ("h13c", "sqrt-h13"):
        ricci, scalar = stage_ricci(CASES[name]())
        S = CASES[name]()
        T = acm.rational_rescaling(S).S if acm.rational_rescaling(S) else S
        table = levi_civita(T)
        want = table.nablas([(T.xi_vec(), v) for v in T.g_mat()])
        T._memo["connection"] = acm.ConnectionTable(Unread(table.columns.parts, table.columns.den))
        data = curvature(S)
        assert rep(data.ricci) == rep(ricci) and rep(data.scalar) == rep(scalar), name
        assert rep(data.connection.nablas([(T.xi_vec(), v) for v in T.g_mat()])) == rep(want)


def test_a_classify_builds_at_most_half_the_fractions_it_did(monkeypatch):
    # the stages pass values to each other and divide back only what leaves
    # them: the conjugated h13 builds 2,370 Fractions (2,963 when classify
    # went through the 2-form Phi and ce_d of Phi and eta, 3,172 when nullspace,
    # solve and mat_solve divided back every entry of the RREF, 3,444 when the
    # rank of eta divided K B K^T back before ranking it, 3,630 when the Koszul
    # solve along xi and g^-1 went through Fractions), 13,739 when every kernel
    # call divided its result back
    S = CASES["h13c"]()
    real, built = Fraction.__new__, [0]

    def counting(cls, *args, **kwargs):
        built[0] += 1
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    classify_nilpotent_aqs(S)
    monkeypatch.undo()
    assert built[0] <= 2_370, built[0]


def _nudged(S):
    # a float phi with one entry 1e-12 where 0.0 was: near zero, skipped by the
    # reader of the table, kept by the products
    phi = S.phi_mat()
    phi[0][next(j for j, x in enumerate(phi[0]) if x == 0.0)] = 1e-12
    return acm.AcmStructure.make(S.L, phi, S.xi_vec(), S.eta_row(), S.g_mat())


NIJENHUIS_CASES = {
    **{name: CASES[name] for name in ("h9h", "h13c", "float-h9c", "float-h13")},
    "float-h9c-nudged": lambda: _nudged(CASES["float-h9c"]()),
    # its algebra does not rescale: tower ad matrices, per-scalar products
    "sqrt-h13-companion2": lambda: weighted_heisenberg_4n1(
        3, [Ext.of_sqrt(2), Fraction(1), Fraction(3, 2) * Ext.of_sqrt(5)])[1][2],
}


@pytest.mark.parametrize("name", sorted(NIJENHUIS_CASES))
def test_nijenhuis_products_match_the_loop_over_i(name):
    # [J, J] from four products against four products per i, every bit, the
    # sign of a zero and ZERO against 0.0; phi and the dense g as J
    S = NIJENHUIS_CASES[name]()
    for J in (S.phi_mat(), S.g_mat()):
        assert rep(nijenhuis(S.L, J)) == rep(nijenhuis_loop(S.L, J))


def test_a_classify_differentiates_nothing_and_multiplies_little(monkeypatch):
    # d Phi is read off one product with the pair brackets, d eta off one with
    # eta and [phi, phi] off four: no ce_d, and 14 products A @ B of values or
    # mat_mul calls on the conjugated h13 (49 when [phi, phi] made four
    # products per i)
    S, calls, ce_d, mat_mul = CASES["h13c"](), [], exterior.ce_d, linalg.mat_mul
    matmul = TowerOver.__matmul__
    monkeypatch.setattr(exterior, "ce_d", lambda L, w: calls.append("ce_d") or ce_d(L, w))
    for module in (acm, linalg):
        monkeypatch.setattr(module, "mat_mul", lambda A, B: calls.append("mul") or mat_mul(A, B))
    monkeypatch.setattr(TowerOver, "__matmul__", lambda A, B: calls.append("mul") or matmul(A, B))
    classify_structure(S)
    assert "ce_d" not in calls
    assert calls.count("mul") <= 14, calls.count("mul")


def test_closedness_suite_reads_the_d_eta_of_the_classification(monkeypatch):
    # after classify_structure, only g(., A .) is differentiated, off the pair
    # brackets: no ce_d
    S = _h(3)
    classify_structure(S)
    calls, ce_d = [], exterior.ce_d
    monkeypatch.setattr(exterior, "ce_d", lambda L, w: calls.append(w) or ce_d(L, w))
    assert closedness_suite(S).ok
    assert len(calls) == 0


def test_an_exact_normal_form_ranks_no_eta_and_differentiates_no_form(monkeypatch):
    # the isomorphism certificate proves eta of maximal rank: no rank, no null
    # space of eta and no ce_d on the conjugated h13
    calls = []
    for name in ("ce_d", "rank", "nullspace"):
        real = getattr(exterior, name)
        monkeypatch.setattr(exterior, name,
                            lambda *a, real=real, name=name: calls.append(name) or real(*a))
    classify_nilpotent_aqs(CASES["h13c"]())
    assert calls == []


def test_xi_killing_verdict_is_kept_and_its_contradiction_raised_again(monkeypatch):
    builds, real = [], acm.ad_value
    monkeypatch.setattr(acm, "ad_value", lambda L, X: builds.append(X.N[0]) or real(L, X))
    S = CASES["h9c"]()
    assert xi_killing_check(S) and xi_killing_check(S)
    assert len(builds) == 1
    # the Koszul solve along xi reads the Killing check's g ad_xi: one exact
    # classify builds ad_xi once
    builds.clear()
    U = CASES["h13c"]()
    classify_nilpotent_aqs(U)
    xi = list(acm.numerator_view(U).xi.N[0])
    assert [list(X) for X in builds].count(xi) == 1
    # a Killing xi with d eta(xi, .) != 0 raises on every call, nothing kept:
    # the Killing test (n^2 entries) passes, the eta([xi, .]) = 0 test (n) fails
    monkeypatch.setattr(TowerOver, "is_zero", lambda X: len(linalg._flat(X.N)) != S.L.dim)
    T = CASES["h9c"]()
    for _ in range(2):
        with pytest.raises(InternalContradiction, match="Killing xi"):
            xi_killing_check(T)
    assert "xi_killing" not in T._memo


def test_frame_certificate_names_pairs_one_based(monkeypatch):
    # the first quadruple's v moved along xi: still of its norm in the frame's
    # scales, no longer orthogonal to xi, so pair (xi, e_1) fails first
    S = _h(2)
    real = adapted._psi2_orbits

    def moved(S):
        spectrum = real(S)
        ev, mult, orbits = spectrum[0]
        v, *rest = orbits[0]
        orbits = [(list(map(sum, zip(v, S.xi))), *rest)] + orbits[1:]
        return [(ev, mult, orbits)] + spectrum[1:]

    monkeypatch.setattr(adapted, "_psi2_orbits", moved)
    with pytest.raises(InternalContradiction, match=r"not orthonormal at pair \(1, 2\)"):
        adapted_frame(S)


def test_morphism_certificate_names_pairs_one_based(monkeypatch):
    # on a conjugated h9 every bracket is nonzero: F b_1 doubled breaks
    # [F b_1, F b_2] = F [b_1, b_2] first
    import aqslie.classifier as classifier

    S = CASES["h9c"]()
    real = classifier._gram_inverse  # the classifier's one product: M = diag(1/q) R^T g

    def doubled(*args):
        return real(*args).regroup(lambda N: [[2 * row[0]] + row[1:] for row in N])

    monkeypatch.setattr(classifier, "_gram_inverse", doubled)
    with pytest.raises(InternalContradiction, match=r"morphism at pair \(1, 2\)"):
        classify_nilpotent_aqs(S)
