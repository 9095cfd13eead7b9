"""Scalar arithmetic: exact rationals with adjoined square roots, or floats.

Exact mode is the default everywhere.  A scalar is either a
:class:`fractions.Fraction` (the common case) or an :class:`Ext`, a formal
sum  sum_r  q_r * sqrt(r)  over squarefree positive integers r with rational
coefficients (r = 1 is the rational part).  The set {sqrt(r)} is linearly
independent over the rationals, so equality is coefficient-wise and exact.
Square roots of positive rationals embed via sqrt(p/q) = sqrt(p*q)/q.

Float mode stores plain Python floats; a single global tolerance (default
1e-9) governs every equality and sign test on floats.  Mixing a float into
exact arithmetic demotes the result to float; algebras declare their mode
explicitly, this never happens silently for well-formed inputs.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import InternalContradiction, ScalarParseError

DEFAULT_TOLERANCE = 1e-9
_tolerance = DEFAULT_TOLERANCE


def set_tolerance(tol: float) -> None:
    global _tolerance
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    _tolerance = float(tol)


def get_tolerance() -> float:
    return _tolerance


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def squarefree_split(n: int) -> tuple[int, int]:
    """Write n > 0 as s*s*r with r squarefree; returns (s, r)."""
    if n <= 0:
        raise ValueError("radicand must be positive")
    s, r = 1, 1
    for p in _SMALL_PRIMES:
        while n % (p * p) == 0:
            n //= p * p
            s *= p
        if n % p == 0:
            n //= p
            r *= p
    p = 41
    while p * p <= n:
        while n % (p * p) == 0:
            n //= p * p
            s *= p
        if n % p == 0:
            n //= p
            r *= p
        p += 2
    return s, r * n


def _least_prime_factor(n: int) -> int:
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

    Stored as {squarefree radicand: Fraction coefficient}; kept normalized
    (no zero coefficients).  Collapses back to Fraction via
    :func:`normalize` when the support is rational.
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
        return s_eq(self, other)

    def __hash__(self):
        if self.is_rational():
            return hash(self.rational_part())
        return hash(tuple(sorted(self.terms.items())))

    def __float__(self) -> float:
        return sum(float(c) * math.sqrt(r) for r, c in self.terms.items())

    def __repr__(self) -> str:
        return f"Ext({s_str(self)})"

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
        return su * s_sign(s_sub(s_mul(u, u), s_mul(Fraction(p), s_mul(v, v))))


Scalar = Fraction | Ext | float  # type alias for annotations

ZERO = Fraction(0)
ONE = Fraction(1)


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


def _as_ext(x) -> Ext:
    if isinstance(x, Ext):
        return x
    return Ext({1: Fraction(x)})


def _lift(x):
    # ints appear naturally in user-supplied vectors; fold them in
    return Fraction(x) if isinstance(x, int) and not isinstance(x, bool) else x


def s_add(a, b):
    if type(a) is Fraction and type(b) is Fraction:
        return a + b
    a, b = _lift(a), _lift(b)
    if isinstance(a, float) or isinstance(b, float):
        return s_to_float(a) + s_to_float(b)
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a + b
    ea, eb = _as_ext(a), _as_ext(b)
    terms = dict(ea.terms)
    for r, c in eb.terms.items():
        terms[r] = terms.get(r, ZERO) + c
    return normalize(Ext(terms))


def s_neg(a):
    if type(a) is Fraction:
        return -a
    a = _lift(a)
    if isinstance(a, float):
        return -a
    if isinstance(a, Fraction):
        return -a
    return Ext({r: -c for r, c in a.terms.items()})


def s_sub(a, b):
    if type(a) is Fraction and type(b) is Fraction:
        return a - b
    return s_add(a, s_neg(b))


def s_mul(a, b):
    if type(a) is Fraction and type(b) is Fraction:
        return a * b
    a, b = _lift(a), _lift(b)
    if isinstance(a, float) or isinstance(b, float):
        return s_to_float(a) * s_to_float(b)
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a * b
    ea, eb = _as_ext(a), _as_ext(b)
    terms: dict[int, Fraction] = {}
    for r1, c1 in ea.terms.items():
        for r2, c2 in eb.terms.items():
            g = math.gcd(r1, r2)
            rad = (r1 // g) * (r2 // g)
            coeff = c1 * c2 * g
            terms[rad] = terms.get(rad, ZERO) + coeff
    return normalize(Ext(terms))


def s_inv(a):
    a = normalize(_lift(a))
    if isinstance(a, float):
        return 1.0 / a
    if isinstance(a, Fraction):
        return ONE / a
    # Rationalize: multiplying by the conjugate that flips every radicand
    # divisible by a chosen prime removes that prime from the support.
    num: Scalar = ONE
    den = a
    while isinstance(den, Ext):
        p = None
        for r in den.terms:
            if r != 1:
                p = _least_prime_factor(r)
                break
        if p is None:
            raise InternalContradiction(f"no radicand left to rationalize in {s_str(den)}")
        conj = Ext({r: (-c if r % p == 0 else c) for r, c in den.terms.items()})
        num = s_mul(num, conj)
        den = s_mul(den, conj)
    return s_mul(num, ONE / den)


def s_div(a, b):
    a, b = _lift(a), _lift(b)
    if isinstance(a, float) or isinstance(b, float):
        return s_to_float(a) / s_to_float(b)
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a / b
    return s_mul(a, s_inv(b))


def s_is_zero(a) -> bool:
    if type(a) is Fraction:
        return not a
    a = _lift(a)
    if isinstance(a, float):
        return abs(a) <= _tolerance
    if isinstance(a, Fraction):
        return a == 0
    return not a.terms


def s_eq(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return abs(s_to_float(a) - s_to_float(b)) <= _tolerance
    return s_is_zero(s_sub(a, b))


def s_sign(a) -> int:
    a = _lift(a)
    if isinstance(a, float):
        if abs(a) <= _tolerance:
            return 0
        return 1 if a > 0 else -1
    if isinstance(a, Fraction):
        return (a > 0) - (a < 0)
    return a.sign()


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
    a = _lift(a)
    if isinstance(a, float):
        if a < -_tolerance:
            raise ValueError("sqrt of negative scalar")
        return math.sqrt(max(a, 0.0))
    if isinstance(a, Ext):
        if not a.is_rational():
            raise ValueError(f"sqrt of non-rational tower element {s_str(a)}")
        a = a.rational_part()
    if a < 0:
        raise ValueError("sqrt of negative scalar")
    if a == 0:
        return ZERO
    n = a.numerator * a.denominator
    s, r = squarefree_split(n)
    coeff = Fraction(s, a.denominator)
    if r == 1:
        return coeff
    return Ext({r: coeff})


def s_to_float(a) -> float:
    return float(a)


_TERM_RE = re.compile(
    r"^(?P<sign>[+-])?(?P<coeff>\d+(?:/\d+)?)?(?P<star>\*)?(?:sqrt\((?P<rad>\d+)\))?$"
)


def s_str(a) -> str:
    """Canonical string form; inverse of :func:`parse_scalar`."""
    a = _lift(a)
    if isinstance(a, float):
        return repr(a)
    if isinstance(a, Fraction):
        return str(a)
    parts = []
    for r in sorted(a.terms):
        c = a.terms[r]
        if r == 1:
            text = str(c)
        elif c == 1:
            text = f"sqrt({r})"
        elif c == -1:
            text = f"-sqrt({r})"
        else:
            text = f"{c}*sqrt({r})"
        if parts and not text.startswith("-"):
            parts.append("+" + text)
        else:
            parts.append(text)
    return "".join(parts) if parts else "0"


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
            if "/" in text:
                return float(Fraction(text))
            return float(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ScalarParseError(f"bad float scalar {text!r}") from exc
    total: Scalar = ZERO
    for term in _split_terms(text):
        m = _TERM_RE.match(term)
        if not m or (m.group("star") and not (m.group("coeff") and m.group("rad"))):
            raise ScalarParseError(f"bad exact scalar {text!r}")
        coeff_s, rad_s = m.group("coeff"), m.group("rad")
        if coeff_s is None and rad_s is None:
            raise ScalarParseError(f"bad exact scalar {text!r}")
        try:
            coeff = Fraction(coeff_s) if coeff_s is not None else Fraction(1)
        except (ValueError, ZeroDivisionError) as exc:
            raise ScalarParseError(f"bad exact scalar {text!r}") from exc
        if m.group("sign") == "-":
            coeff = -coeff
        if rad_s is not None:
            rad = int(rad_s)
            if rad <= 0:
                raise ScalarParseError(f"bad radicand in {text!r}")
            total = s_add(total, s_mul(coeff, Ext.of_sqrt(rad)))
        else:
            total = s_add(total, coeff)
    return total
