"""Scalar arithmetic: exact rationals with adjoined square roots, or floats.

Exact mode is the default everywhere.  A scalar is either a
:class:`fractions.Fraction` (the common case) or an :class:`Ext`, a formal
sum  sum_r  q_r * sqrt(r)  over squarefree positive integers r with rational
coefficients (r = 1 is the rational part).  The set {sqrt(r)} is linearly
independent over the rationals, so equality is coefficient-wise and exact.
Square roots of positive rationals embed via sqrt(p/q) = sqrt(p*q)/q.

Float mode stores plain Python floats; a single global tolerance (default
1e-9) governs every equality and sign test on floats.

A computation holds one field: exact scalars (an int operand is exact, and
an exact result that is rational is a Fraction), or floats alone, with their
constants made by :func:`units`.  The exact kinds combine in the arithmetic
operators of :class:`Ext`; Python's numeric protocol dispatches the rest.
An Ext still meets a float as ``float(a) op float(b)``, but no computation
of the package mixes the two.

Most kernels call the named functions ``s_add``, ``s_mul``, ... so that one
operation is one function a profiler or a counter can rebind; the product
fold ``linalg._fold`` and the per-scalar elimination ``linalg._reduced`` use
the operators, which are their bodies.  Only the
comparisons (``s_is_zero``, ``s_sign``) tell floats apart, for the tolerance.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction

from .errors import PreconditionError, ScalarParseError

DEFAULT_TOLERANCE = 1e-9
_tolerance = DEFAULT_TOLERANCE


def finite_positive(x) -> float:
    """x as a float; ValueError unless it is finite and positive."""
    x = float(x)
    if not 0 < x < math.inf:
        raise ValueError(f"{x} is not a finite positive number")
    return x


def set_tolerance(tol: float) -> None:
    global _tolerance
    _tolerance = finite_positive(tol)


def get_tolerance() -> float:
    return _tolerance


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def squarefree_split(n: int) -> tuple[int, int]:
    """Write n > 0 as s*s*r with r squarefree; returns (s, r).  The least
    prime factor p of what is left goes into s when p*p divides it, else
    into r."""
    if n <= 0:
        raise ValueError("radicand must be positive")
    s, r = 1, 1
    while n > 1:
        p = _least_prime_factor(n)
        n //= p
        if n % p:
            r *= p
        else:
            n //= p
            s *= p
    return s, r


def _least_prime_factor(n: int) -> int:
    """The least prime factor of n > 1 (n itself when prime), by trial division."""
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return p
    p = 41
    while p * p <= n:
        if n % p == 0:
            return p
        p += 2
    return n


class Ext:
    """Element of the compositum of real quadratic fields over Q.

    Stored as {squarefree radicand: Fraction coefficient} without zero
    coefficients.  Ext is a number type: ``+ - * /`` and unary minus accept
    an int, Fraction, float or Ext on either side.  An exact result that is
    rational collapses to a Fraction (:func:`normalize`), a float operand
    demotes the result to float, and the left operand's radicands come
    first in the result, which fixes the order in which ``float`` sums it.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, Fraction]):
        self.terms = {r: c for r, c in terms.items() if c != 0}

    @staticmethod
    def of_sqrt(n: int) -> "Ext":
        s, r = squarefree_split(n)
        return Ext({r: Fraction(s)})

    def rational_part(self) -> Fraction:
        return self.terms.get(1, Fraction(0))

    def is_rational(self) -> bool:
        return all(r == 1 for r in self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if _exact_terms(other) is None and not isinstance(other, float):
            return NotImplemented
        return s_eq(self, other)

    def __hash__(self):
        if self.is_rational():
            return hash(self.rational_part())
        return hash(tuple(sorted(self.terms.items())))

    def __float__(self) -> float:
        return sum(float(c) * math.sqrt(r) for r, c in self.terms.items())

    def __str__(self) -> str:
        parts = []
        for r in sorted(self.terms):
            c = self.terms[r]
            if r == 1:
                text = str(c)
            elif c == 1:
                text = f"sqrt({r})"
            elif c == -1:
                text = f"-sqrt({r})"
            else:
                text = f"{c}*sqrt({r})"
            parts.append(text if not parts or text.startswith("-") else "+" + text)
        return "".join(parts) or "0"

    def __repr__(self) -> str:
        return f"Ext({self})"

    def __add__(self, other):
        return _sum_terms(self, other, operator.add)

    def __radd__(self, other):
        return _sum_terms(other, self, operator.add)

    def __sub__(self, other):
        return _sum_terms(self, other, operator.sub)

    def __rsub__(self, other):
        return _sum_terms(other, self, operator.sub)

    def __mul__(self, other):
        return _product(self, other)

    def __rmul__(self, other):
        return _product(other, self)

    def __neg__(self):
        return normalize(Ext({r: -c for r, c in self.terms.items()}))

    def __truediv__(self, other):
        if isinstance(other, float):
            return float(self) / other
        return self * (ONE / other)

    def __rtruediv__(self, other):
        if isinstance(other, float):
            return other / float(self)
        # Rationalize: multiplying by the conjugate that flips every radicand
        # divisible by a chosen prime removes that prime from the support.
        num, den = ONE, normalize(self)
        while isinstance(den, Ext):
            p = _least_prime_factor(next(r for r in den.terms if r != 1))
            conj = Ext({r: (-c if r % p == 0 else c) for r, c in den.terms.items()})
            num, den = num * conj, den * conj
        return other * (num * (ONE / den))

    def sign(self) -> int:
        """Exact sign.  With p a prime dividing some radicand, write
        x = u + v sqrt(p) where no radicand of u or v is divisible by p;
        then sign(x) follows from sign(u), sign(v) and, when those differ,
        sign(u^2 - p v^2).  Each recursive call has one prime fewer."""
        p = next((_least_prime_factor(r) for r in self.terms if r != 1), None)
        if p is None:
            q = self.rational_part()
            return (q > 0) - (q < 0)
        u = normalize(Ext({r: c for r, c in self.terms.items() if r % p}))
        v = normalize(Ext({r // p: c for r, c in self.terms.items() if r % p == 0}))
        su, sv = s_sign(u), s_sign(v)
        if su * sv >= 0:
            return su or sv
        return su * s_sign(u * u - p * (v * v))


def _exact_terms(x) -> dict | None:
    """The terms of an exact operand; None for a float or a foreign type."""
    if isinstance(x, Ext):
        return x.terms
    if isinstance(x, (int, Fraction)):
        return {1: Fraction(x)} if x else {}
    return None


def _float_or_not_implemented(a, b, op):
    if isinstance(a, float) or isinstance(b, float):
        return op(float(a), float(b))
    return NotImplemented


def _sum_terms(a, b, op):
    """a + b or a - b (op) with an Ext operand."""
    ta, tb = _exact_terms(a), _exact_terms(b)
    if ta is None or tb is None:
        return _float_or_not_implemented(a, b, op)
    terms = dict(ta)
    for r, c in tb.items():
        terms[r] = op(terms.get(r, ZERO), c)
    return normalize(Ext(terms))


def _product(a, b):
    """a * b with an Ext operand: sqrt(r1) sqrt(r2) = g sqrt(r1 r2 / g^2)
    for g = gcd(r1, r2)."""
    x, c = (a, b) if isinstance(a, Ext) else (b, a)
    if type(c) in (int, Fraction):  # the loop's terms, one product each, in x's order
        return normalize(Ext({r: v * c for r, v in x.terms.items()}))
    ta, tb = _exact_terms(a), _exact_terms(b)
    if ta is None or tb is None:
        return _float_or_not_implemented(a, b, operator.mul)
    terms: dict[int, Fraction] = {}
    for r1, c1 in ta.items():
        for r2, c2 in tb.items():
            g = math.gcd(r1, r2)
            rad = (r1 // g) * (r2 // g)
            terms[rad] = terms.get(rad, ZERO) + c1 * c2 * g
    return normalize(Ext(terms))


Scalar = Fraction | Ext | float  # type alias for annotations

ZERO = Fraction(0)
ONE = Fraction(1)


def units(floats: bool) -> tuple:
    """(zero, one) of a field: 0.0 and 1.0 for floats, else ZERO and ONE."""
    return (0.0, 1.0) if floats else (ZERO, ONE)


def normalize(x) -> Scalar:
    if isinstance(x, Ext) and x.is_rational():
        return x.rational_part()
    return x


def coerce(x) -> Scalar:
    """Accept int/Fraction/Ext/float and return a canonical scalar."""
    if isinstance(x, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, (Fraction, float)):
        return x
    if isinstance(x, Ext):
        return normalize(x)
    raise TypeError(f"not a scalar: {x!r}")


def is_exact(x) -> bool:
    return not isinstance(x, float)


def s_add(a, b):
    return a + b


def s_neg(a):
    return -a


def s_sub(a, b):
    return a - b


def s_mul(a, b):
    return a * b


def s_inv(a):
    return ONE / a


def s_div(a, b):
    # int / int is true division in Python; an int numerator stays exact
    return (Fraction(a) if type(a) is int else a) / b


def s_is_zero(a) -> bool:
    return abs(a) <= _tolerance if isinstance(a, float) else not a


def s_eq(a, b) -> bool:
    return s_is_zero(a - b)


def s_sign(a) -> int:
    if isinstance(a, float):
        return 0 if abs(a) <= _tolerance else (1 if a > 0 else -1)
    return a.sign() if isinstance(a, Ext) else (a > 0) - (a < 0)


def s_lt(a, b) -> bool:
    return s_sign(s_sub(a, b)) < 0


def s_abs(a):
    return s_neg(a) if s_sign(a) < 0 else a


def s_sqrt(a):
    """Square root of a nonnegative scalar.

    Exact mode requires a rational value (possibly the rational collapse of
    an Ext); the result lives in the extension tower.  Raises ValueError on
    negative or non-rational exact input.
    """
    if isinstance(a, float):
        if a < -_tolerance:
            raise ValueError("sqrt of negative scalar")
        return math.sqrt(max(a, 0.0))
    a = normalize(a)
    if isinstance(a, Ext):
        raise ValueError(f"sqrt of non-rational tower element {a}")
    if a < 0:
        raise ValueError("sqrt of negative scalar")
    if a == 0:
        return ZERO
    s, r = squarefree_split(a.numerator * a.denominator)
    return normalize(Ext({r: Fraction(s, a.denominator)}))


_TERM_RE = re.compile(
    r"^(?P<sign>[+-])?(?P<coeff>\d+(?:/\d+)?)?(?P<star>\*)?(?:sqrt\((?P<rad>\d+)\))?$"
)
# a plain rational, the commonest exact cell, read without the term grammar
_PLAIN_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def s_str(a) -> str:
    """Canonical string form; inverse of :func:`parse_scalar`.  An inf or a nan,
    a float that overflowed, has none: a PreconditionError names it."""
    if isinstance(a, float) and not math.isfinite(a):
        raise PreconditionError(f"float overflow: a result is {a!r}; rerun in exact mode")
    return repr(a) if isinstance(a, float) else str(a)


def _split_terms(text: str) -> list[str]:
    terms, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0 and i > start:
            terms.append(text[start:i])
            start = i
    terms.append(text[start:])
    return terms


def parse_scalar(text: str, mode: str = "exact"):
    """Parse a scalar string: 'p/q', decimal (float mode), or sums of
    'p/q*sqrt(r)' terms in exact mode."""
    text = text.strip().replace(" ", "")
    if not text:
        raise ScalarParseError("empty scalar string")
    if mode == "float":
        try:
            x = float(Fraction(text)) if "/" in text else float(text)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ScalarParseError(f"bad float scalar {text[:40]!r}") from exc
        if not math.isfinite(x):  # nan or inf, also from an overflowing decimal
            raise ScalarParseError(f"float scalar {text[:40]!r} is not finite")
        return x
    if _PLAIN_RE.fullmatch(text):
        try:  # a ValueError: past the interpreter's limit on int-string digits
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ScalarParseError(f"bad exact scalar {text[:40]!r}") from exc
    return _parse_tower(text)


def _parse_tower(text: str):
    """Sum of the 'p/q*sqrt(r)' terms of text (stripped, spaces removed)."""
    total: Scalar = ZERO
    for term in _split_terms(text):
        m = _TERM_RE.match(term)
        if not m or (m.group("star") and not (m.group("coeff") and m.group("rad"))):
            raise ScalarParseError(f"bad exact scalar {text[:40]!r}")
        coeff_s, rad_s = m.group("coeff"), m.group("rad")
        if coeff_s is None and rad_s is None:
            raise ScalarParseError(f"bad exact scalar {text[:40]!r}")
        try:
            coeff = Fraction(coeff_s) if coeff_s is not None else Fraction(1)
            rad = int(rad_s) if rad_s is not None else None
        except (ValueError, ZeroDivisionError) as exc:
            raise ScalarParseError(f"bad exact scalar {text[:40]!r}") from exc
        if m.group("sign") == "-":
            coeff = -coeff
        if rad is not None:
            if rad <= 0:
                raise ScalarParseError(f"bad radicand in {text[:40]!r}")
            total = total + coeff * Ext.of_sqrt(rad)
        else:
            total = total + coeff
    return total
