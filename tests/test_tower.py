"""Square-root tower values (``aqslie.tower``) against the per-scalar route:
every operation on the classes gives, entry by entry and type by type, what
the fold (``linalg._fold``), the entrywise kernels and ``max_abs`` give on
the divided-back entries."""

import operator
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from aqslie.linalg import (
    MatOver,
    _entrywise,
    _flat,
    _fold,
    max_abs,
    mat_solve,
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
    assert bits((V @ W).mat()) == bits(_fold(Am, transpose(Bm)))
    assert bits(V.on_rows(X).mat()) == bits(_fold(Cm, Am))
    assert bits((V + X).mat()) == bits(_entrywise(Am, Cm, operator.add, s_add))
    assert bits((V - X).mat()) == bits(_entrywise(Am, Cm, operator.sub, s_sub))
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
    # a MatOver reads a class value as its entries, on the per-scalar kernels
    assert bits((MatOver(Am) @ W).mat()) == bits((V @ W).mat())
    assert bits((MatOver(Cm) - V).mat()) == bits(_entrywise(Cm, Am, operator.sub, s_sub))


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
    assert total == _entrywise(A, B, operator.add, s_add)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(towers(), st.data())
def test_solves_with_a_rational_left_side_match_the_per_scalar_elimination(tower, data):
    # every class of B in one integer RREF against the per-scalar RREF of
    # [A | B]; a singular A raises in both
    _, entry = tower
    n, p = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    A = data.draw(matrices(small, n, n))
    B, den = data.draw(matrices(entry, n, p)), data.draw(st.integers(1, 6))
    try:
        want = mat_solve(MatOver(A), MatOver(entries(B, den))).mat()
    except ValueError:
        want = None
    try:
        X = mat_solve(value(A, 1), value(B, den))
    except ValueError:
        X = None
    assert (X is None) == (want is None)
    if X is not None:
        assert isinstance(X, TowerOver) and bits(X.mat()) == bits(want)
