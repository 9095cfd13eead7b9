"""Square-root tower values: sum_t sqrt(t) N_t / den, one integer matrix N_t per
squarefree class t over one positive den (number-field elements as integer
vectors over one denominator: H. Cohen, GTM 138, ch. 4), the one form of an
exact value: a rational matrix is the class 1 alone.

``LieAlgebra._operands`` makes them once per computation in which every
constant and operand is exact.  A product is one integer product per pair of
nonzero classes (r, s), landing in the class r s / g^2 scaled by g = gcd(r, s),
each class of the right operand indexed once: ``_class_products``, which the
Nijenhuis bracket runs too (floats as the class 1, from 0.0).  The linear
operations act class by class at the lcm of the denominators, a ``mat_solve``
with a rational left side solves every class in one integer RREF, and scalars
are built only where a value leaves (``mat``, ``scaled_mat``, and ``N`` for the
readers without a class route, the integers themselves for a rational value).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction

from .linalg import (Mat, MatOver, _flat, _int_index, _int_rows, _rowwise, _solved, diag_scaled,
                     max_abs)
from .scalars import ZERO, Ext, normalize, s_div, s_is_zero, units


def tower_values(mats: list[Mat], den: int = 1) -> list[TowerOver]:
    """The exact matrices mats / den in class form over one denominator, their
    rows split together: class t of an entry holds its coefficient of sqrt(t)."""
    rows = [row for M in mats for row in M]
    if (scaled := _int_rows(rows)) is not None:
        parts, d = {1: scaled[0][0]}, scaled[1] or 1
    else:
        nonzero = [(i, j, x.terms if type(x) is Ext else {1: x})
                   for i, row in enumerate(rows) for j, x in enumerate(row) if x]
        d = math.lcm(*(c.denominator for *_, ts in nonzero for c in ts.values()))
        classes = {1}.union(*(ts for *_, ts in nonzero))
        parts = {t: [[0] * len(row) for row in rows] for t in classes}
        for i, j, ts in nonzero:
            for t, c in ts.items():
                parts[t][i][j] = c.numerator * (d // c.denominator)
    out, at = [], 0
    for M in mats:
        out.append(TowerOver({t: P[at:at + len(M)] for t, P in parts.items()}, d * den))
        at += len(M)
    return out


def outer_rows(pairs: list, exact: bool) -> tuple[list, MatOver]:
    """(used, K): row p of K holds x_i y_j at column c, used[c] = i n + j ascending, for
    the p-th pair (x, y) where neither is near zero; on rational pairs integers over the
    square of their common denominator, else class values of the products, or floats."""
    vectors = [v for pair in pairs for v in pair]
    scaled = _int_rows(vectors) if exact else None
    rows, n = scaled[0][0] if scaled else vectors, len(vectors[0]) if vectors else 0
    supports = [[(i, x) for i, x in enumerate(v) if not s_is_zero(x)] for v in rows]
    coeffs = [{i * n + j: x * y for i, x in xs for j, y in ys}
              for xs, ys in zip(supports[::2], supports[1::2])]
    used, zero = sorted(set().union(*coeffs)), 0 if scaled else units(not exact)[0]
    K = [[c.get(u, zero) for u in used] for c in coeffs]
    return used, (TowerOver({1: K}, (scaled[1] or 1) ** 2) if scaled
                  else tower_values([K])[0] if exact else MatOver(K))


def _live(parts: dict) -> dict:
    """The classes of parts with a nonzero entry."""
    return {t: M for t, M in parts.items() if any(map(any, M))}


def _class_products(rows: dict, index: dict, width: int, zero=0) -> dict:
    """{u: the sum of g rows[r] against index[s] (``_int_index``) over the class pairs
    (r, s) with sqrt(r) sqrt(s) = g sqrt(u), g = gcd(r, s)}: one ``_rowwise`` per pair,
    from the field's zero, so a float value, the class 1 alone, sums as its product does."""
    out: dict = {}
    for (r, A), (s, nz) in itertools.product(rows.items(), index.items()):
        g = math.gcd(r, s)
        P = _rowwise([[g * x for x in row] for row in A] if g > 1 else A, nz, width, zero)
        u = r * s // (g * g)
        out[u] = [list(map(operator.add, a, b)) for a, b in zip(out[u], P)] if u in out else P
    return out


def _products(rows: dict, cols: dict) -> dict:
    """rows cols^T by class, ``_class_products`` of the live classes, class 1 among them."""
    width, index = len(cols[1]), {s: _int_index(B) for s, B in _live(cols).items()}
    out = _class_products(_live(rows), index, width)
    out.setdefault(1, [[0] * width for _ in rows[1]])
    return out


def _aligned(values: list[TowerOver]) -> tuple[list[dict], int]:
    """The parts of the values at the lcm of their denominators, each over the
    classes of all of them (zero where it has none)."""
    den, classes = math.lcm(*(v.den for v in values)), set().union(*(v.parts for v in values))
    out = []
    for v in values:
        k, zero = den // v.den, [[0] * len(row) for row in v.parts[1]]
        out.append({t: zero if (M := v.parts.get(t)) is None else M if k == 1
                    else [[k * x for x in row] for row in M] for t in classes})
    return out, den


def _combined(v: TowerOver, other: TowerOver, op) -> TowerOver:
    """v op other entry by entry, class by class."""
    (a, b), den = _aligned([v, other])
    return TowerOver({t: [list(map(op, x, y)) for x, y in zip(a[t], b[t])] for t in a}, den)


class TowerOver(MatOver):
    """sum_t sqrt(t) parts[t] / den (module docstring), class 1 always among the
    parts, all of one shape and of ints only: the exact value, N built where it is read."""

    __slots__ = ("parts", "den")

    def __init__(self, parts: dict, den: int = 1):
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "den", den)

    N = property(lambda self: self.parts[1] if self._rational() else self.mat(1))

    def _rational(self) -> bool:
        return len(self.parts) == 1 or _live(self.parts).keys() <= {1}

    def regroup(self, fn) -> TowerOver:
        return TowerOver({t: fn(M) for t, M in self.parts.items()}, self.den)

    def __matmul__(self, other: TowerOver) -> TowerOver:
        return TowerOver(_products(self.parts, other.T.parts), self.den * other.den)

    def on_rows(self, V: TowerOver) -> TowerOver:
        return TowerOver(_products(V.parts, self.parts), self.den * V.den)

    __add__ = functools.partialmethod(_combined, op=operator.add)
    __sub__ = functools.partialmethod(_combined, op=operator.sub)

    def __mul__(self, c) -> TowerOver:
        """c self, c an int or a Fraction, whose denominator joins den."""
        scaled = self.regroup(lambda M: [[c.numerator * x for x in row] for row in M])
        return TowerOver(scaled.parts, self.den * c.denominator)

    def __eq__(self, other: TowerOver) -> bool:
        return (self - other).is_zero()

    def is_zero(self) -> bool:
        return not _live(self.parts)

    def max_abs(self):
        """max |entry|, the residual of an identity: on the integers of a rational value."""
        if self._rational():
            return Fraction(max((abs(x) for row in self.parts[1] for x in row), default=0), self.den)
        return s_div(max_abs(_flat(self.N)), self.den)

    def mat(self, den: int | None = None) -> Mat:
        """The entries over den (self.den when None): a Fraction where an entry
        is rational, else an Ext."""
        live, d = sorted(_live(self.parts)) or [1], den or self.den
        if live == [1]:
            return [[Fraction(x, d) if x else ZERO for x in row] for row in self.parts[1]]
        return [[normalize(Ext({t: Fraction(x, d) for t, x in zip(live, xs) if x})) if any(xs)
                 else ZERO for xs in zip(*rows)] for rows in zip(*(self.parts[t] for t in live))]

    def scaled_mat(self, left: list) -> Mat:
        """The entries of diag(left) self, each left[k] one class c sqrt(t): on a rational
        value entry (k, j) is the one Fraction c N_kj / den, an Ext when t != 1; other
        values take ``linalg.diag_scaled`` of their entries, one product per entry."""
        if not self._rational():
            return diag_scaled(self.mat(), left, None)
        out = []
        for x, row in zip(left, self.parts[1]):
            ((t, c),) = x.terms.items() if type(x) is Ext else ((1, x),)
            n, d = c.numerator, c.denominator * self.den
            fs = [Fraction(n * y, d) if y else ZERO for y in row]
            out.append(fs if t == 1 else [Ext({t: f}) if f else ZERO for f in fs])
        return out


def restricted(M: Mat) -> tuple[list[Mat], int]:
    """([R], den), R / den = rho(M): the tower matrix M as the rational matrix of
    the same Q-linear map (restriction of scalars: S. Lang, Algebra, ch. VI 8), in
    the basis sqrt(t) e_j, t over the square classes its radicands generate,
    ascending: entry (i, u), (j, t) is the coefficient of sqrt(u) in M_ij sqrt(t),
    read off the classes of M: sqrt(r) sqrt(t) = g sqrt(r t / g^2), g = gcd(r, t)."""
    (V,) = tower_values([M])
    classes = [1]  # a group: a new radicand doubles it by a coset
    for r in V.parts:
        classes += [] if r in classes else [r * t // math.gcd(r, t) ** 2 for t in classes]
    m, at = len(classes), {t: k for k, t in enumerate(sorted(classes))}
    R = [[0] * (len(M) * m) for _ in range(len(M) * m)]
    for (r, N), (t, k) in itertools.product(V.parts.items(), at.items()):
        g = math.gcd(r, t)
        for i, row in enumerate(N):
            for j in itertools.compress(range(len(row)), row):
                R[i * m + at[r * t // g**2]][j * m + k] += row[j] * g
    return [R], V.den


def tower_solve(A: TowerOver, B: TowerOver) -> TowerOver:
    """X with A X = B (``linalg.mat_solve``): for a rational A the classes of B
    side by side in one integer RREF (``linalg._solved``), else per scalar on
    the numerators, (A.N / a)^-1 B.N / b = a A.N^-1 B.N / b."""
    if not A._rational():
        return tower_values([_solved(A.N, B.N)[0]], B.den)[0] * A.den
    classes, width = sorted(B.parts), len(B.parts[1][0]) if B.parts[1] else 0
    X, den = _solved(A.parts[1], [sum(rows, []) for rows in zip(*(B.parts[t] for t in classes))])
    return TowerOver({t: [row[k * width:k * width + width] for row in X]
                      for k, t in enumerate(classes)}, den * B.den) * A.den
