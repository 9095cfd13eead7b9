"""Square-root tower values (``aqslie.tower``) against the per-scalar route:
every operation on the classes gives, entry by entry and type by type, what
the full fold from ZERO, the scalar operators, ``max_abs`` and the per-scalar
RREF give on the divided-back entries."""

import operator
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from aqslie.linalg import (
    _flat,
    diag_scaled,
    mat_solve,
    max_abs,
    rref,
    stacked,
    transpose,
    vec_is_zero,
)
from aqslie.scalars import ZERO, Ext, s_add, s_div, s_eq, s_mul, s_neg, s_sub
from aqslie.tower import TowerOver, tower_values

PRIMES = (2, 3, 5, 7)
small = st.builds(F, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def towers(draw):
    """(classes, entries): 1-3 primes and their squarefree products, and a
    strategy for entries mixing Fractions, Exts and zeros over them."""
    primes = draw(st.lists(st.sampled_from(PRIMES), min_size=1, max_size=3, unique=True))
    classes = sorted({1} | {p * q for p in primes for q in [1, *primes] if p != q})
    term = st.tuples(st.sampled_from(classes), small)
    entry = st.just(ZERO) | small | st.lists(term, max_size=3).map(
        lambda ts: sum((c * Ext.of_sqrt(t) for t, c in ts), ZERO))
    return classes, entry


def matrices(entry, rows, cols):
    return st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


def value(M, den, zero_class=None):
    """M / den in class form, with an all-zero class besides when asked."""
    (V,) = tower_values([M], den)
    if zero_class is not None and zero_class not in V.parts:
        V = TowerOver({**V.parts, zero_class: [[0] * len(row) for row in M]}, V.den)
    return V


def entries(M, den):
    return [[s_div(x, den) for x in row] for row in M]


def bits(M):
    return [[(type(x), x) for x in row] for row in M]


def full_fold(rows, cols):
    """[[ZERO + row[0] col[0] + row[1] col[1] + ... for col in cols] for row in rows]."""
    return [[sum(map(operator.mul, row, col), ZERO) for col in cols] for row in rows]


def entrywise(A, B, op):
    return [list(map(op, ra, rb)) for ra, rb in zip(A, B)]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(towers(), st.data())
def test_tower_values_match_the_per_scalar_route(tower, data):
    classes, entry = tower
    m, k, p = (data.draw(st.integers(1, 3)) for _ in range(3))
    dens = st.integers(1, 6)
    A, B, C = (data.draw(matrices(entry, *shape)) for shape in ((m, k), (k, p), (m, k)))
    da, db, dc = (data.draw(dens) for _ in range(3))
    zero = data.draw(st.sampled_from([None, *classes]))
    V, W, X = value(A, da, zero), value(B, db), value(C, dc, zero)
    Am, Bm, Cm = entries(A, da), entries(B, db), entries(C, dc)
    assert bits(V.mat()) == bits(Am)
    assert bits((V @ W).mat()) == bits(full_fold(Am, transpose(Bm)))
    assert bits(V.on_rows(X).mat()) == bits(full_fold(Cm, Am))
    assert bits((V + X).mat()) == bits(entrywise(Am, Cm, s_add))
    assert bits((V - X).mat()) == bits(entrywise(Am, Cm, s_sub))
    assert bits((-V).mat()) == bits([[s_neg(x) for x in row] for row in Am])
    c = data.draw(small)
    assert bits((V * c).mat()) == bits([[s_mul(c, x) for x in row] for row in Am])
    assert (V == X) == all(map(s_eq, _flat(Am), _flat(Cm)))
    assert V == value(A, da) and V - V == value(A, da) * 0
    assert bits(V.T.mat()) == bits(transpose(Am)) and bits(V[1:].mat()) == bits(Am[1:])
    assert bits(V.regroup(lambda N: [N[-1], N[0]]).mat()) == bits([Am[-1], Am[0]])
    assert bits(stacked([V, X, V]).mat()) == bits(Am + Cm + Am)
    assert V.max_abs() == max_abs(_flat(Am)) and V.is_zero() == vec_is_zero(_flat(Am))
    assert V.N == [[s_mul(x, V.den) for x in row] for row in Am]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(towers(), st.data())
def test_sums_that_cancel_come_back_rational(tower, data):
    # the classes past 1 of A + B cancel: every entry is a Fraction again
    _, entry = tower
    m, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    A, Z = data.draw(matrices(entry, m, n)), data.draw(matrices(small, m, n))
    B = [[z - (x - (x.rational_part() if isinstance(x, Ext) else x)) for x, z in zip(ra, rz)]
         for ra, rz in zip(A, Z)]
    total = (value(A, 1) + value(B, 1)).mat()
    assert all(type(x) is F for row in total for x in row)
    assert total == entrywise(A, B, s_add)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(towers(), st.data())
def test_solves_with_a_rational_left_side_match_the_per_scalar_elimination(tower, data):
    # every class of B in one integer RREF against the per-scalar RREF of
    # [A | B]; a singular A raises in both
    _, entry = tower
    n, p = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    A = data.draw(matrices(small, n, n))
    B, den = data.draw(matrices(entry, n, p)), data.draw(st.integers(1, 6))
    R, pivots = rref([a + b for a, b in zip(A, entries(B, den))])
    want = [row[n:] for row in R[:n]] if pivots[:n] == list(range(n)) else None
    try:
        X = mat_solve(value(A, 1), value(B, den))
    except ValueError:
        X = None
    assert (X is None) == (want is None)
    if X is not None:
        assert isinstance(X, TowerOver) and bits(X.mat()) == bits(want)


def test_an_exact_maximum_with_numerators_past_the_float_range_stays_exact():
    # max |entry| of a multi-class value compares Exts: an integer numerator
    # past 1.8e308 never meets float(), which would overflow
    big = 10 ** 311
    V = TowerOver({1: [[big, 0], [1, 0]], 2: [[0, 0], [1, 3 * big]]}, 7)
    top = s_mul(Ext.of_sqrt(2), F(3 * big, 7))
    assert V.max_abs() == top and max_abs(_flat(V.mat())) == top
    assert max_abs([F(-big, 3), s_mul(Ext.of_sqrt(2), -big), ZERO]) == s_mul(Ext.of_sqrt(2), big)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(towers(), st.data())
def test_a_left_diagonal_of_single_classes_is_diag_scaled(tower, data):
    # diag(left) V, each left[k] one class c sqrt(t): entry for entry, type for type
    # and term for term the per-scalar products of diag_scaled, rational V or not
    classes, entry = tower
    rational = data.draw(st.booleans())
    M = data.draw(matrices(small if rational else entry, 3, 4))
    V = value(M, data.draw(st.integers(1, 12)))
    left = [c * Ext.of_sqrt(t) for t, c in data.draw(
        st.lists(st.tuples(st.sampled_from(classes), small), min_size=3, max_size=3))]
    assert repr(V.scaled_mat(left)) == repr(diag_scaled(V.mat(), left, None))


def test_f_from_a_rational_m_makes_no_ext_product(monkeypatch):
    # F = D M of the conjugated h^13 frame: one Fraction per entry of M's integers,
    # where diag_scaled of the divided-back M makes an Ext product per entry
    import random

    import aqslie.classifier as classifier
    import aqslie.scalars as scalars
    from aqslie.acm import conjugate_structure
    from aqslie.constructors import weighted_heisenberg_4n1
    from aqslie.linalg import random_unimodular

    seen = []
    real = classifier._frame_isomorphism
    monkeypatch.setattr(classifier, "_frame_isomorphism", lambda S, t, c, lengths, q: (
        seen.append((classifier._gram_inverse(S, c, q), lengths)) or real(S, t, c, lengths, q)))
    S = weighted_heisenberg_4n1(3, [1, 2, 3])[1][0]
    classifier.classify_nilpotent_aqs(conjugate_structure(S, random_unimodular(13, random.Random(3))))
    (M, lengths), = seen
    assert M._rational() and any(type(x) is Ext for x in lengths)
    products = []
    real_product = scalars._product
    monkeypatch.setattr(scalars, "_product", lambda a, b: products.append(1) or real_product(a, b))
    F = M.scaled_mat(lengths)
    assert products == []
    want = diag_scaled(M.mat(), lengths, None)
    assert products and repr(F) == repr(want)
