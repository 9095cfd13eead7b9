"""Exterior calculus: wedge, differential, rank of a 1-form, Betti numbers."""

import random
from fractions import Fraction as F
from functools import cache
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqslie.constructors import (
    abelian,
    shipped_algebras,
    su2,
    su3,
    weighted_heisenberg_2n1,
    weighted_heisenberg_4n1,
)
from aqslie.errors import PreconditionError
from aqslie.exterior import (
    KForm,
    _d_targets,
    _graded_rank,
    _torus_weights,
    _weight_blocks,
    ce_betti,
    ce_bettis,
    bilinear_from_form,
    ce_d,
    ce_d_matrix,
    d_of_pairs,
    form_scale,
    rank_of_eta,
    theta,
    wedge,
)
from aqslie.linalg import rank
from aqslie.scalars import s_add, s_eq, s_mul, s_neg
from oracles import evaluate, form_add, form_eq, form_sub, wedge_power


def random_form(L, degree, rng, max_terms=8):
    terms = {}
    basis_tuples = list(combinations(range(L.dim), degree))
    rng.shuffle(basis_tuples)
    for idx in basis_tuples[: rng.randrange(1, max_terms)]:
        terms[idx] = F(rng.randrange(-6, 7), rng.randrange(1, 4))
    return KForm.make(degree, L.dim, terms)


def test_wedge_dual_basis_pairing():
    w = wedge(theta(0, 4), theta(1, 4))
    assert s_eq(evaluate(w, [[F(1), 0, 0, 0], [F(0), F(1), 0, 0]]), F(1))
    assert s_eq(w.coeff((0, 1)), F(1))
    assert s_eq(w.coeff((1, 0)), F(-1))


def test_eta_wedge_deta_squared_is_volume():
    L = weighted_heisenberg_4n1(1, [1])[0]
    eta = theta(0, 5)
    deta = ce_d(L, eta)
    top = wedge(eta, wedge(deta, deta))
    assert top.degree == 5 and not top.is_zero()


def test_deta_squared_coefficient():
    # (d eta)^2 = 8 theta1^theta2^theta3^theta4 for d eta = -2(t1^t4 + t2^t3)
    deta = KForm.make(2, 4, {(0, 3): F(-2), (1, 2): F(-2)})
    sq = wedge(deta, deta)
    assert len(sq.coeffs) == 1
    assert s_eq(sq.coeff((0, 1, 2, 3)), F(8))


def test_wedge_degree_overflow_is_zero():
    a = KForm.make(2, 3, {(0, 1): F(1)})
    b = KForm.make(2, 3, {(1, 2): F(1)})
    assert wedge(a, b).is_zero()


def test_wedge_graded_commutative_and_associative():
    rng = random.Random(5)
    L = weighted_heisenberg_4n1(1, [1])[0]
    for _ in range(25):
        k, l = rng.randrange(0, 3), rng.randrange(0, 3)
        a, b = random_form(L, k, rng), random_form(L, l, rng)
        c = random_form(L, rng.randrange(0, 2), rng)
        sign = F(-1) ** (k * l)
        assert form_eq(wedge(a, b), form_scale(wedge(b, a), sign))
        assert form_eq(wedge(wedge(a, b), c), wedge(a, wedge(b, c)))


def test_ce_d_weighted_heisenberg():
    # d eta = -2 sum_r w_r (th_r ^ th_{3n+r} + th_{n+r} ^ th_{2n+r})
    for n, w in ((1, [1]), (2, [1, 2]), (2, [3, 5])):
        L = weighted_heisenberg_4n1(n, w)[0]
        deta = ce_d(L, theta(0, L.dim))
        for r in range(1, n + 1):
            assert s_eq(deta.coeff((r, 3 * n + r)), F(-2) * F(w[r - 1]))
            assert s_eq(deta.coeff((n + r, 2 * n + r)), F(-2) * F(w[r - 1]))
        assert len(deta.coeffs) == 2 * sum(1 for x in w if x)
        # the 1-forms theta_l are all closed
        for l in range(1, L.dim):
            assert ce_d(L, theta(l, L.dim)).is_zero()


def test_ce_d_abelian_vanishes():
    L = abelian(5)
    rng = random.Random(0)
    for k in range(0, 5):
        assert ce_d(L, random_form(L, k, rng)).is_zero()


def test_d_squared_zero_randomized():
    rng = random.Random(42)
    algebras = [
        weighted_heisenberg_4n1(1, [1])[0],
        weighted_heisenberg_4n1(2, [1, 2])[0],
        weighted_heisenberg_2n1(2, [1, 3])[0],
        su2(),
    ]
    for L in algebras:
        for _ in range(30):
            k = rng.randrange(0, min(L.dim, 4))
            w = random_form(L, k, rng)
            assert ce_d(L, ce_d(L, w)).is_zero()


def test_degree2_differential_matches_cyclic_formula():
    # d w (X,Y,Z) = -w([X,Y],Z) - w([Y,Z],X) - w([Z,X],Y)
    from aqslie.lie_core import bracket

    L = su2()
    rng = random.Random(9)
    w = random_form(L, 2, rng)
    dw = ce_d(L, w)
    basis = [L.basis_vector(i) for i in range(3)]
    got = evaluate(dw, basis)
    want = F(0)
    for (a, b, c) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        want -= evaluate(w, [bracket(L, basis[a], basis[b]), basis[c]])
    assert s_eq(got, want)


def test_rank_of_eta():
    for n, w, expected in (
        (1, [1], 5),
        (2, [1, 2], 9),
        (2, [1, 0], 5),
        (3, [1, 2, 3], 13),
        (3, [1, 0, 2], 9),
    ):
        L = weighted_heisenberg_4n1(n, w)[0]
        rr = rank_of_eta(L, theta(0, L.dim))
        assert rr.rank == expected
        assert rr.parity == "odd"
        assert rr.is_maximal == (expected == L.dim)
        p_nonzero = sum(1 for x in w if x)
        assert rr.rank == 4 * p_nonzero + 1


def test_rank_closed_eta_is_one():
    L = abelian(5)
    rr = rank_of_eta(L, theta(0, 5))
    assert rr.rank == 1 and rr.parity == "odd" and rr.largest_power == 0


def test_rank_rejects_zero_form():
    with pytest.raises(PreconditionError):
        rank_of_eta(abelian(3), KForm.make(1, 3, {}))


def _aff(copies):
    """aff(1) summed copies times: [e_1, e_2] = e_2 in each copy."""
    from aqslie.lie_core import LieAlgebra

    return LieAlgebra.from_brackets(
        2 * copies, {(2 * c, 2 * c + 1): {2 * c + 1: F(1)} for c in range(copies)})


def test_rank_of_eta_even_class():
    # aff(1): d e^2 = -e^1 ^ e^2 and e^2 ^ d e^2 = 0, class 2; e^1 is closed
    rr = rank_of_eta(_aff(1), theta(1, 2))
    assert (rr.rank, rr.parity, rr.p, rr.largest_power, rr.is_maximal) == (2, "even", 1, 1, False)
    assert rank_of_eta(_aff(1), theta(0, 2)).rank == 1


def _wedge_class(L, eta):
    """The class of eta from its wedge powers: p the largest power with
    (d eta)^p != 0, then 2p+1 when eta ^ (d eta)^p != 0, else 2p."""
    deta, p = ce_d(L, eta), 0
    while not wedge_power(deta, p + 1).is_zero():
        p += 1
    return 2 * p + (not wedge(eta, wedge_power(deta, p)).is_zero())


CLASS_ALGEBRAS = {
    "aff1": lambda: _aff(1),
    "aff1+aff1": lambda: _aff(2),
    "su2": su2,
    "su3": su3,
    "h5": lambda: weighted_heisenberg_4n1(1, [1])[0],
    "h9": lambda: weighted_heisenberg_4n1(2, [1, 2])[0],
    "h5-2n1": lambda: weighted_heisenberg_2n1(2, [1, 3])[0],
}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(CLASS_ALGEBRAS)), st.data())
def test_rank_of_eta_matches_the_wedge_powers(name, data):
    # the two ranks against the wedge powers on random 1-forms; only the
    # aff(1) sums have 1-forms of even class
    L = CLASS_ALGEBRAS[name]()
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=L.dim, max_size=L.dim).filter(any))
    eta = KForm.make(1, L.dim, {(i,): F(c) for i, c in enumerate(coeffs)})
    rr = rank_of_eta(L, eta)
    assert rr.rank == _wedge_class(L, eta)
    assert rr.parity == ("odd" if rr.rank % 2 else "even") and rr.p == rr.rank // 2


def test_ce_betti_abelian():
    L = abelian(5)
    for k in range(6):
        assert ce_betti(L, k) == comb(5, k)


def test_ce_betti_h5():
    L = weighted_heisenberg_4n1(1, [1])[0]
    assert ce_betti(L, 0) == 1
    assert ce_betti(L, 1) == 4
    assert ce_betti(L, 2) == 5


def test_poincare_duality_nilpotent():
    algebras = [
        abelian(4),
        weighted_heisenberg_2n1(1, [1])[0],
        weighted_heisenberg_4n1(1, [1])[0],
        weighted_heisenberg_4n1(1, [2])[0],
        weighted_heisenberg_2n1(2, [1, 3])[0],
    ]
    for L in algebras:
        bettis = [ce_betti(L, k) for k in range(L.dim + 1)]
        assert bettis == bettis[::-1], (L.basis_names, bettis)


SQRT_WEIGHTS = "sqrt(2),1,3/2*sqrt(5)"  # the square-root weights of the CLI benchmark


def _sqrt_h13():
    from aqslie.scalars import parse_scalar

    return weighted_heisenberg_4n1(3, [parse_scalar(w) for w in SQRT_WEIGHTS.split(",")])[0]


def santharoubane(m):
    """Betti numbers of h_{2m+1}: C(2m, k) - C(2m, k - 2) for k <= m, mirrored
    (L. J. Santharoubane, Proc. AMS 87, 1983)."""
    low = [comb(2 * m, k) - (comb(2 * m, k - 2) if k > 1 else 0) for k in range(m + 1)]
    return low + low[::-1]


def test_weighted_heisenberg_bettis_follow_the_closed_form():
    # every nonzero weighting of h^{2n+1} and h^{4n+1} is the Heisenberg
    # algebra h_{2m+1}; the graded ranks must give its closed-form Betti numbers
    algebras = [weighted_heisenberg_2n1(n, list(range(1, n + 1)))[0] for n in range(1, 7)]
    algebras += [weighted_heisenberg_4n1(n, list(range(1, n + 1)))[0] for n in (1, 2, 3)]
    for L in algebras + [_sqrt_h13()]:
        bettis = ce_bettis(L, range(L.dim + 1))
        assert list(bettis.values()) == santharoubane(L.dim // 2), (L.dim, L.brackets)
    assert santharoubane(6)[:7] == [1, 12, 65, 208, 429, 572, 429]


def test_graded_ranks_equal_the_whole_differential():
    # the sum of the weight-block ranks is the rank of ce_d_matrix: on a
    # conjugated h9 (trivial torus, one block), on su3, on a float copy and
    # on the square-root weights
    from floatcopy import float_structure

    h9 = _conjugated_algebra(2, [1, 2], 1)
    assert set(_torus_weights(h9)) == {0}
    float_h9 = float_structure(weighted_heisenberg_4n1(2, [1, 2])[1][0]).L
    cases = [(h9, 9), (su3(), 8), (float_h9, 9), (_sqrt_h13(), 3)]
    for L, top in cases:
        targets, den = _d_targets(L)
        weights = _torus_weights(L)
        for k in range(top + 1):
            graded = _graded_rank(targets, den, weights, k, L.floats)
            assert graded == rank(ce_d_matrix(L, k)), (L.mode, L.dim, k)


def test_weight_blocks_are_preserved_by_d():
    # d maps each weight space of Lambda^k into the same weight space of
    # Lambda^{k+1}: every image of a block's monomial stays in its weight
    L = weighted_heisenberg_4n1(2, [1, 3])[0]
    weights = _torus_weights(L)
    assert len(set(weights)) == L.dim  # weights separate the basis here
    for k in range(L.dim):
        for weight, monomials in _weight_blocks(weights, k).items():
            for I in monomials:
                image = ce_d(L, KForm.make(k, L.dim, {I: F(1)}))
                assert all(sum(weights[i] for i in J) == weight for J, _ in image.coeffs)


def test_ce_betti_agrees_with_sympy_ranks():
    sympy = pytest.importorskip("sympy")

    def sympy_rank(M):
        if not M or not M[0]:
            return 0
        return sympy.Matrix(
            [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in M]
        ).rank()

    for name, L in shipped_algebras().items():
        # dim 13 stops at degree 2: sympy's rank of the 715 x 286 degree-3
        # matrix alone takes seconds
        top = 2 if L.dim > 9 else L.dim
        ranks = [sympy_rank(ce_d_matrix(L, k)) if k < L.dim else 0 for k in range(top + 1)]
        for k in range(top + 1):
            expected = comb(L.dim, k) - ranks[k] - (ranks[k - 1] if k else 0)
            assert ce_betti(L, k) == expected, (name, k)


def test_ce_d_matrix_shape_and_rank():
    L = weighted_heisenberg_4n1(1, [1])[0]
    d1 = ce_d_matrix(L, 1)
    assert len(d1) == comb(5, 2) and len(d1[0]) == 5
    assert rank(d1) == 1  # only d eta is nonzero
    d2 = ce_d_matrix(L, 2)
    assert rank(d2) == 4


def test_form_linear_ops():
    a = KForm.make(1, 3, {(0,): F(1)})
    b = KForm.make(1, 3, {(1,): F(2)})
    s = form_add(a, b)
    assert s_eq(s.coeff((1,)), F(2))
    assert form_sub(s, b).coeffs == a.coeffs
    assert form_eq(form_scale(a, F(0)), KForm.make(1, 3, {}))
    assert form_eq(wedge_power(a, 0), KForm.make(0, 3, {(): F(1)}))


# ---------------------------------------------------------------------------
# ce_d against the term-by-term Leibniz/wedge construction
# ---------------------------------------------------------------------------

def leibniz_d_theta(L, m):
    """d theta^m = - sum_{i<j} c_ij^m theta^i ^ theta^j."""
    terms = {}
    for (i, j), entries in L.brackets:
        for k, v in entries:
            if k == m:
                terms[(i, j)] = s_neg(v)
    return KForm.make(2, L.dim, terms)


def leibniz_ce_d(L, w):
    """Differential via the graded Leibniz rule on basis monomials, one
    wedge and one form_add per term (the oracle for ce_d)."""
    dthetas = [leibniz_d_theta(L, m) for m in range(L.dim)]
    out = KForm.make(w.degree + 1, L.dim)
    for I, c in w.coeffs:
        for r, idx in enumerate(I):
            dth = dthetas[idx]
            if dth.is_zero():
                continue
            rest = KForm.make(
                w.degree - 1, L.dim, {tuple(x for t, x in enumerate(I) if t != r): F(1)}
            )
            sign_c = c if r % 2 == 0 else s_neg(c)
            out = form_add(out, form_scale(wedge(rest, dth), sign_c))
    return out


def _conjugated_algebra(n, weights, seed):
    from aqslie.acm import conjugate_structure
    from aqslie.linalg import random_unimodular

    _, (S1, _, _) = weighted_heisenberg_4n1(n, weights)
    return conjugate_structure(S1, random_unimodular(S1.L.dim, random.Random(seed))).L


def _float_algebra(L):
    from aqslie.lie_core import LieAlgebra

    table = {pair: {k: float(v) for k, v in entries} for pair, entries in L.brackets}
    return LieAlgebra.from_brackets(L.dim, table, list(L.basis_names), "float", check=False)


def _ce_d_oracle_algebras():
    from aqslie.constructors import su3

    return {
        "h9": _conjugated_algebra(2, [1, 2], 1),
        "h13": _conjugated_algebra(3, [1, 2, 3], 2),
        "su3": su3(),
    }


def test_ce_d_matches_leibniz_oracle():
    from aqslie.scalars import Ext

    rng = random.Random(17)
    sqrt2, sqrt3 = Ext.of_sqrt(2), Ext.of_sqrt(3)
    for name, L in _ce_d_oracle_algebras().items():
        Lf = _float_algebra(L)
        for degree in range(4):
            for _ in range(4):
                w = random_form(L, degree, rng)
                assert ce_d(L, w) == leibniz_ce_d(L, w), (name, degree)
                ext = KForm.make(degree, L.dim, {
                    I: s_add(c, s_mul(F(rng.randrange(-3, 4)), rng.choice((sqrt2, sqrt3))))
                    for I, c in w.coeffs
                })
                assert ce_d(L, ext) == leibniz_ce_d(L, ext), (name, degree)
                flt = KForm.make(degree, L.dim, {I: float(c) / 7 for I, c in w.coeffs})
                # float results must agree bit for bit, zero drops included
                assert ce_d(Lf, flt) == leibniz_ce_d(Lf, flt), (name, degree)
                assert ce_d(L, flt) == leibniz_ce_d(L, flt), (name, degree)


def test_ce_d_float_drops_entries_that_reach_zero_midway():
    # on [e0, e1] = e2 + e3 + e4 the first two terms of d w cancel below the
    # tolerance; the term-by-term sum drops that entry before the third term
    # lands, and ce_d must round the same way
    from aqslie.lie_core import LieAlgebra

    L = LieAlgebra.from_brackets(5, {(0, 1): {2: 1.0, 3: 1.0, 4: 1.0}}, None, "float", False)
    w = KForm.make(1, 5, {(2,): 1.0, (3,): -1.0 + 1e-12, (4,): 0.1})
    assert ce_d(L, w) == leibniz_ce_d(L, w)
    assert ce_d(L, w).coeffs == (((0, 1), -0.1),)


def test_ce_d_matrix_columns_are_ce_d_of_monomials():
    from aqslie.scalars import ZERO

    for name, L in _ce_d_oracle_algebras().items():
        for k in range(3 if L.dim > 9 else 4):
            M = ce_d_matrix(L, k)
            rows = list(combinations(range(L.dim), k + 1))
            for c_i, I in enumerate(combinations(range(L.dim), k)):
                image = ce_d(L, KForm.make(k, L.dim, {I: F(1)}))
                column = {J: M[r][c_i] for r, J in enumerate(rows) if M[r][c_i] != ZERO}
                assert column == dict(image.coeffs), (name, k, I)


# ---------------------------------------------------------------------------
# d of a 2-form from one product with the pair brackets
# ---------------------------------------------------------------------------

@cache
def _product_algebra(name):
    from aqslie.scalars import Ext

    if name == "sqrt-h13":  # tower constants: the product folds per scalar
        return weighted_heisenberg_4n1(3, [Ext.of_sqrt(2), F(1), F(3, 2) * Ext.of_sqrt(5)])[0]
    n, seed = {"h9c1": (2, 1), "h13c2": (3, 2), "h13c7": (3, 7)}[name]
    return _conjugated_algebra(n, [1, 2, 3][:n], seed)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(["h9c1", "h13c2", "h13c7", "sqrt-h13"]), st.data())
def test_d_of_a_2form_from_the_pair_brackets_matches_ce_d(name, data):
    # every d Phi of a classify input is zero, where a sign error of the
    # scatter would not show: random rational 2-forms, sparse to dense
    from aqslie.lie_core import pair_brackets
    from aqslie.linalg import MatOver, identity

    L = _product_algebra(name)
    pairs = list(combinations(range(L.dim), 2))
    coeffs = st.builds(F, st.integers(-9, 9).filter(bool), st.integers(1, 6))
    w = KForm.make(2, L.dim, data.draw(st.dictionaries(st.sampled_from(pairs), coeffs,
                                                       min_size=1, max_size=len(pairs))))
    (W,) = L.values(bilinear_from_form(w))
    C = pair_brackets(L, MatOver(identity(L.dim)), pairs)  # row p: [b_a, b_b]
    triples, d = d_of_pairs(C @ W, pairs)
    product = {t: repr(x) for t, x in zip(triples, d.mat()[0]) if x}
    assert product == {t: repr(x) for t, x in ce_d(L, w).coeffs}
