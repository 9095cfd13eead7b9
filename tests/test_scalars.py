"""Scalar tower: field axioms, canonical strings, square roots, tolerance."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqslie.errors import ScalarParseError
from aqslie.scalars import (
    Ext,
    get_tolerance,
    parse_scalar,
    s_abs,
    s_add,
    s_div,
    s_eq,
    s_inv,
    s_is_zero,
    s_lt,
    s_mul,
    s_neg,
    s_sign,
    s_sqrt,
    s_str,
    s_sub,
    set_tolerance,
    squarefree_split,
)

rationals = st.builds(
    F, st.integers(-50, 50), st.integers(1, 10)
)
radicands = st.sampled_from([1, 2, 3, 5, 6, 7, 10, 15])


@st.composite
def tower_elements(draw):
    n_terms = draw(st.integers(0, 3))
    total = F(0)
    for _ in range(n_terms):
        c = draw(rationals)
        r = draw(radicands)
        total = s_add(total, s_mul(c, Ext.of_sqrt(r)))
    return total


def test_squarefree_split():
    assert squarefree_split(1) == (1, 1)
    assert squarefree_split(8) == (2, 2)
    assert squarefree_split(36) == (6, 1)
    assert squarefree_split(360) == (6, 10)
    assert squarefree_split(7 * 7 * 11) == (7, 11)


# products of primes around the end of the small-prime table, repeated so
# that squares and higher powers occur, beside arbitrary n up to 10^12
_POWERS = st.lists(st.sampled_from([2, 3, 37, 41, 43, 997, 1009]), max_size=8).map(
    math.prod).filter(lambda n: n <= 10**12)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.one_of(st.integers(1, 10**12), _POWERS))
def test_squarefree_split_matches_sympy_factorint(n):
    sympy = pytest.importorskip("sympy")
    factors = sympy.factorint(n)
    assert squarefree_split(n) == (math.prod(p ** (e // 2) for p, e in factors.items()),
                                   math.prod(p for p, e in factors.items() if e % 2))


_RADICANDS = st.sampled_from([1, 2, 3, 5, 6, 7, 10, 15, 30, 1001])
_RATIONALS = st.one_of(st.integers(-50, 50), st.fractions(max_denominator=60))


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.dictionaries(_RADICANDS, _RATIONALS.map(F).filter(bool), min_size=1, max_size=5),
       _RATIONALS)
def test_a_rational_times_an_ext_is_the_product_of_the_loop(terms, c):
    # an Ext times an int or a Fraction, either way round, scales each
    # coefficient once; the loop over pairs of terms, run on c as the Ext
    # {1: c}, gives the same value, kind, term order and float bits
    x = Ext(terms)
    for got, want in ((x * c, x * Ext({1: F(c)})), (c * x, Ext({1: F(c)}) * x)):
        assert type(got) is type(want) and got == want
        if isinstance(want, Ext):
            assert list(got.terms.items()) == list(want.terms.items())
        assert float(got).hex() == float(want).hex()


def test_radical_multiplication_reduces():
    assert s_eq(s_mul(Ext.of_sqrt(2), Ext.of_sqrt(2)), F(2))
    assert s_eq(s_mul(Ext.of_sqrt(6), Ext.of_sqrt(10)), s_mul(F(2), Ext.of_sqrt(15)))
    assert s_eq(s_mul(Ext.of_sqrt(8), Ext.of_sqrt(2)), F(4))


def test_sqrt_of_rationals():
    assert s_eq(s_sqrt(F(9, 4)), F(3, 2))
    assert s_eq(s_sqrt(F(8)), s_mul(F(2), Ext.of_sqrt(2)))
    assert s_eq(s_sqrt(F(2, 3)), s_div(Ext.of_sqrt(6), F(3)))
    assert s_eq(s_mul(s_sqrt(F(7, 5)), s_sqrt(F(7, 5))), F(7, 5))
    with pytest.raises(ValueError):
        s_sqrt(F(-1))
    with pytest.raises(ValueError):
        s_sqrt(s_add(F(1), Ext.of_sqrt(2)))  # non-rational tower element


def test_signs_and_ordering():
    assert s_sign(s_sub(Ext.of_sqrt(2), F(1))) == 1
    assert s_sign(s_sub(Ext.of_sqrt(2), F(2))) == -1
    # 3*sqrt(2) - 2*sqrt(3) ~ 0.779 > 0, close call decided exactly
    val = s_sub(s_mul(F(3), Ext.of_sqrt(2)), s_mul(F(2), Ext.of_sqrt(3)))
    assert s_sign(val) == 1
    assert s_lt(F(1), Ext.of_sqrt(2))
    assert s_eq(s_abs(s_neg(Ext.of_sqrt(5))), Ext.of_sqrt(5))


def test_sign_is_exact_on_pell_near_cancellations():
    # q sqrt(2) - p for the convergents p/q of sqrt(2): |q sqrt(2) - p| is
    # about 1 / (2 sqrt(2) q), far below float resolution once q is large
    p, q = 1, 1
    for _ in range(60):
        x = s_sub(s_mul(F(q), Ext.of_sqrt(2)), F(p))
        want = (2 * q * q > p * p) - (2 * q * q < p * p)
        assert (s_sign(x), s_sign(s_neg(x))) == (want, -want)
        p, q = p + 2 * q, p + q


@settings(max_examples=100, deadline=None)
@given(tower_elements(), tower_elements())
def test_sign_is_consistent(a, b):
    s = s_sign(a)
    assert s_sign(s_neg(a)) == -s
    assert (s == 0) == s_is_zero(a)
    assert s_sign(s_mul(a, a)) == abs(s)
    assert s_sign(s_mul(a, b)) == s * s_sign(b)
    if abs(float(a)) > 1e-6:
        assert s == (1 if float(a) > 0 else -1)


def test_inverse_of_rational_valued_ext():
    # Ext({1: q}) is a rational in tower form; it must invert like q
    two = Ext({1: F(2)})
    assert s_inv(two) == F(1, 2) and type(s_inv(two)) is F
    assert s_div(F(1), two) == F(1, 2)
    assert s_eq(s_div(Ext.of_sqrt(2), two), s_mul(F(1, 2), Ext.of_sqrt(2)))


@settings(max_examples=60, deadline=None)
@given(tower_elements(), tower_elements(), tower_elements())
def test_field_axioms(a, b, c):
    assert s_eq(s_add(a, b), s_add(b, a))
    assert s_eq(s_mul(a, b), s_mul(b, a))
    assert s_eq(s_add(s_add(a, b), c), s_add(a, s_add(b, c)))
    assert s_eq(s_mul(s_mul(a, b), c), s_mul(a, s_mul(b, c)))
    assert s_eq(s_mul(a, s_add(b, c)), s_add(s_mul(a, b), s_mul(a, c)))
    if not s_is_zero(a):
        assert s_eq(s_mul(a, s_inv(a)), F(1))
        assert s_eq(s_div(b, a), s_mul(b, s_inv(a)))


@settings(max_examples=60, deadline=None)
@given(tower_elements())
def test_string_round_trip(a):
    assert s_eq(parse_scalar(s_str(a)), a)


def test_parse_rejects_garbage():
    for bad in ("", "1//2", "sqrt(-3)", "2**3", "1.5", "sqrt()", "x"):
        with pytest.raises(ScalarParseError):
            parse_scalar(bad)


def _outcome(parse, text):
    """(type, value) of parse(text), or ("error", message)."""
    try:
        value = parse(text)
    except ScalarParseError as exc:
        return "error", str(exc)
    return type(value), value


PLAIN_EDGES = ["1/0", "+3", "-0", "007", "3/-4", "1_000", "1.5", "/3", "3/", "+", "0/5",
               "\u0663", "\uff11/\uff12", "-\u0667/3", "2\u0663", "1/0+sqrt(2)", "12 / 4"]
term = st.builds(
    "{}{}{}".format,
    st.sampled_from(["", "+", "-"]),
    st.sampled_from(["", "0", "3", "07", "2/3", "5/0", "\u0664"]),
    st.sampled_from(["", "*sqrt(2)", "sqrt(3)", "*sqrt(0)", "sqrt(5)"]),
)
scalar_texts = st.one_of(
    st.sampled_from(PLAIN_EDGES),
    st.builds("{}{}{}".format, st.sampled_from(["", "+", "-"]), st.integers(0, 10**6),
              st.sampled_from(["", "/0", "/1", "/7", "/012", "/360"])),
    st.lists(term, min_size=1, max_size=3).map("".join),
    st.text(alphabet="0123456789+-/*._ \u0663sqrt()", max_size=8),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(scalar_texts)
def test_plain_rationals_read_like_the_tower_grammar(text):
    # the plain-rational shortcut gives the term grammar's value and message
    from aqslie.scalars import _parse_tower

    normal = text.strip().replace(" ", "")
    if not normal:
        return  # the empty string is refused before either reader
    assert _outcome(parse_scalar, text) == _outcome(_parse_tower, normal), text


def test_plain_rational_edges():
    assert parse_scalar("+3") == F(3) and parse_scalar("007") == F(7)
    assert parse_scalar("-0") == F(0) and parse_scalar("\u0663") == F(3)
    for bad in ("1/0", "3/-4", "1_000", "1.5", "/3", "3/"):
        with pytest.raises(ScalarParseError, match="bad exact scalar"):
            parse_scalar(bad)


def test_parse_float_mode():
    assert parse_scalar("0.25", mode="float") == 0.25
    assert parse_scalar("1/4", mode="float") == 0.25
    with pytest.raises(ScalarParseError):
        parse_scalar("nope", mode="float")


@pytest.mark.parametrize("text", ["nan", "-nan", "inf", "-inf", "Infinity", "1e400", "-1e400"])
def test_parse_float_mode_rejects_non_finite_values(text):
    # --tolerance rejects nan and inf too; a float scalar must be finite
    with pytest.raises(ScalarParseError):
        parse_scalar(text, mode="float")


def test_float_tolerance_governs_equality():
    old = get_tolerance()
    try:
        set_tolerance(1e-9)
        assert s_eq(1.0, 1.0 + 1e-10)
        assert not s_eq(1.0, 1.0 + 1e-6)
        assert s_is_zero(5e-10)
        set_tolerance(1e-3)
        assert s_eq(1.0, 1.0 + 1e-6)
    finally:
        set_tolerance(old)


def test_exact_zero_only_by_cancellation():
    a = s_add(Ext.of_sqrt(2), s_neg(Ext.of_sqrt(2)))
    assert s_is_zero(a)
    assert not s_is_zero(s_sub(Ext.of_sqrt(2), F(141421356, 100000000)))


# ---------------------------------------------------------------------------
# Ext as a number type
# ---------------------------------------------------------------------------

ROOT2 = Ext.of_sqrt(2)
OPERATIONS = (
    lambda a, b: a + b,
    lambda a, b: a - b,
    lambda a, b: a * b,
    lambda a, b: a / b,
)


def test_operators_mix_exact_kinds_on_either_side():
    x = s_add(F(1, 3), s_mul(F(2), ROOT2))  # 1/3 + 2 sqrt(2)
    for other in (F(3, 4), 5, -2):
        q = F(other)
        assert x + other == s_add(x, q) and other + x == s_add(q, x)
        assert x - other == s_sub(x, q) and other - x == s_sub(q, x)
        assert x * other == s_mul(x, q) and other * x == s_mul(q, x)
        assert x / other == s_div(x, q) and other / x == s_div(q, x)
        assert s_eq((other / x) * x, q)
    assert -x == s_sub(F(0), x)
    assert s_eq(x + ROOT2, s_add(F(1, 3), s_mul(F(3), ROOT2)))
    assert s_eq(x * x, s_add(F(1, 9) + 8, s_mul(F(4, 3), ROOT2)))
    assert s_eq((x / ROOT2) * ROOT2, x)


def test_rational_results_are_fractions():
    for got in (
        ROOT2 * ROOT2,
        ROOT2 - ROOT2,
        (F(1) + ROOT2) - ROOT2,
        F(1) - (ROOT2 - F(2)) + ROOT2,
        ROOT2 / ROOT2,
        -Ext({1: F(3)}),
        1 / Ext({1: F(2)}),
        s_div(1, 2),
        s_inv(2),
    ):
        assert type(got) is F
    assert 1 / Ext({1: F(2)}) == F(1, 2)
    assert s_div(1, 2) == F(1, 2)


def test_float_operand_demotes_to_float_bit_for_bit():
    for x in (F(1) + ROOT2, s_mul(F(-5, 7), Ext.of_sqrt(15)) + Ext.of_sqrt(3)):
        for f in (0.1, -3.75, 1e-12):
            for op in OPERATIONS:
                left, right = op(x, f), op(f, x)
                assert type(left) is float and type(right) is float
                assert left == op(float(x), f)
                assert right == op(f, float(x))
        assert type(-x) is Ext


def test_term_order_follows_the_left_operand():
    assert list((F(1) + ROOT2).terms) == [1, 2]
    assert list((ROOT2 + F(1)).terms) == [2, 1]
    assert list((F(1) - ROOT2).terms) == [1, 2]
    assert list((ROOT2 * (F(1) + Ext.of_sqrt(3))).terms) == [2, 6]
    assert list(((F(1) + Ext.of_sqrt(3)) * ROOT2).terms) == [2, 6]
    assert list((Ext.of_sqrt(3) * ROOT2 + F(1)).terms) == [6, 1]


def test_operators_refuse_foreign_types():
    for bad in ("1", None, [1]):
        assert ROOT2 != bad and not (bad == ROOT2)
        with pytest.raises(TypeError):
            ROOT2 + bad
        with pytest.raises(TypeError):
            bad * ROOT2
