"""Finite-dimensional real Lie algebras with exact structure constants.

Structure constants are stored sparsely for i < j only, so antisymmetry is
a storage invariant rather than a runtime check.  Indices are 0-based
internally; the file format is 1-based (see io.py).

Each algebra builds, on first use, a lookup table {(i, j): {k: c_ij^k}}:
integers over one common denominator when every constant is a Fraction.  The table is a private
attribute, not a dataclass field, so equality, hashing and serialization
see only the sparse tuple; a rational algebra keeps its stored constants
beside it.  :meth:`LieAlgebra._operands` decides the field once for the
table and a reader's operands: integers, square-root tower classes
(``tower.TowerOver``) or scalars.  The table is read only as values
(``linalg.MatOver``, numerators over a denominator): :meth:`values` puts
matrices that act with it on that field, and :meth:`ad_values`, :func:`ad_value`,
:func:`bracket`, :func:`pair_brackets`, :func:`basis_brackets` and d eta
(``exterior``) read it in one sparse loop in pair order, for every field.  The Nijenhuis
bracket :func:`nijenhuis_columns` reads it by square class
(:attr:`LieAlgebra._class_tables`) in the class-pair products of ``tower``,
at the cost of the nonzero constants and entries of J.

Jacobi, the center, the lower central series, the Killing form and the
derivations are read off that table: one sparse Jacobi pass, [g, V] from the
columns of :func:`ad_value`, the rest from the basis ad matrices of
:meth:`ad_values`.  The center and the lower central series are kept on the
algebra.

:meth:`LieAlgebra.sqrt_basis` is the field decision for square-root tower
constants and the tensors that act with them: the scalings to the basis of
their square classes (:func:`square_classes`), where all are rational, or
None; :meth:`LieAlgebra.rescaled` rewrites the table in a diagonal basis, :func:`in_basis`
in any basis (a conjugated structure, the basis k (+) m of a reductive split).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce

from .errors import DimensionMismatch, InputError, JacobiError
from .linalg import (
    Mat,
    MatOver,
    Subspace,
    Vec,
    _flat,
    _int_index,
    _int_rows,
    _int_scaled,
    _is_float,
    dot,
    inertia_symmetric,
    mat_vecs,
    nullspace,
    transpose,
    zeros,
)
from .scalars import ZERO, Ext, coerce, s_is_zero, s_sqrt, units
from .tower import TowerOver, _class_products, _live, tower_values

BracketTable = dict  # {(i, j): {k: scalar}} with i < j


def square_classes(n: int, entries: list[tuple]) -> list[int] | None:
    """Squarefree d_0..d_{n-1} with every entry rational in the basis
    sqrt(d_i) e_i, or None.  An entry (indices, q sqrt(s)) of exact scalars,
    an index counted as often as it occurs, needs s prod_indices d_i to be a
    square: one GF(2) equation per prime, all on the bitmask of the indices,
    so one elimination on the masks solves them together, the right sides
    multiplying in Q^x / Q^x^2; free classes are 1.  None for a multi-term
    entry or when the equations are inconsistent."""
    pivots: dict[int, tuple[int, int]] = {}  # highest bit -> (mask, class)
    for indices, x in entries:
        if isinstance(x, Ext) and len(x.terms) > 1:
            return None
        mask = reduce(operator.xor, (1 << i for i in indices), 0)
        s = next(iter(x.terms)) if isinstance(x, Ext) else 1
        while mask and (top := mask.bit_length() - 1) in pivots:
            mask, s = mask ^ pivots[top][0], _class_product(s, pivots[top][1])
        if mask:
            pivots[top] = mask, s
        elif s != 1:
            return None
    d = [1] * n
    for top in sorted(pivots):  # the other bits of a pivot's mask are lower
        mask, s = pivots[top]
        d[top] = reduce(_class_product, (d[i] for i in range(top) if mask >> i & 1), s)
    return d


def _class_product(a: int, b: int) -> int:
    """The squarefree representative of a b modulo squares."""
    return a * b // math.gcd(a, b) ** 2


@dataclass(frozen=True)
class LieAlgebra:
    dim: int
    brackets: tuple  # canonical tuple form of the sparse table
    basis_names: tuple
    mode: str = "exact"

    @staticmethod
    def from_brackets(
        dim: int,
        table: BracketTable,
        basis_names: list[str] | None = None,
        mode: str = "exact",
        check: bool = True,
    ) -> "LieAlgebra":
        if basis_names is None:
            basis_names = [f"e{i+1}" for i in range(dim)]
        if len(basis_names) != dim:
            raise DimensionMismatch("basis_names length != dim")
        canon = []
        for (i, j), coeffs in sorted(table.items()):
            if not (0 <= i < j < dim):
                raise DimensionMismatch(f"bad bracket index pair ({i}, {j})")
            entries = tuple(
                sorted((k, coerce(v)) for k, v in coeffs.items() if not s_is_zero(coerce(v)))
            )
            for k, _ in entries:
                if not 0 <= k < dim:
                    raise DimensionMismatch(f"bad bracket target index {k}")
            if entries:
                canon.append(((i, j), entries))
        if any(_is_float(v) != (mode == "float") for _, es in canon for _, v in es):
            raise InputError(f"{mode} mode: float mode takes float constants, exact mode none")
        L = LieAlgebra(dim, tuple(canon), tuple(basis_names), mode)
        if check:
            bad = jacobi_check(L)
            if bad:
                raise JacobiError(bad)
        return L

    def table(self) -> BracketTable:
        return {(i, j): dict(entries) for (i, j), entries in self.brackets}

    def _tables(self) -> tuple[dict, int | None]:
        """({(i, j): {k: entry}} for i < j, den), built once.  When every constant
        is a Fraction (exact mode) the entries are integers over the common
        denominator den, c_ij^k = entry / den; otherwise they are the
        constants themselves and den is None."""
        cached = self.__dict__.get("_cached_tables")
        if cached is None:
            scaled = not self.floats and _int_scaled([v for _, es in self.brackets for _, v in es])
            if not scaled:
                cached = (self.table(), None)
            else:
                flat = iter(scaled[0])
                table = {pair: {k: next(flat) for k, _ in entries}
                         for pair, entries in self.brackets}
                cached = (table, scaled[1])
            object.__setattr__(self, "_cached_tables", cached)
        return cached

    @cached_property
    def _stored(self) -> BracketTable:
        """table(), built once: a rational algebra's constants for other operands."""
        return self.table()

    floats = property(lambda self: self.mode == "float")  # float mode holds float constants

    @cached_property
    def _class_tables(self) -> tuple[dict, int]:
        """({r: {(i, j): {k: entry}}}, den), the table by square class, built once:
        c_ij^k = sum over r of sqrt(r) entry_r / den, integers in exact mode
        (``tower.tower_values`` of the constants), the floats over 1 in float mode.
        A class holds the pairs and targets where it is nonzero."""
        table, den = self._tables()
        if den is not None or self.floats:
            return ({1: table} if table else {}), den or 1
        (V,) = tower_values([[[v for es in table.values() for v in es.values()]]])
        keys = [(pair, k) for pair, es in table.items() for k in es]
        classes: dict = {}
        for t, (row,) in V.parts.items():
            for (pair, k), x in zip(keys, row):
                if x:
                    classes.setdefault(t, {}).setdefault(pair, {})[k] = x
        return classes, V.den

    def sqrt_basis(self, mats=(), vecs=()) -> tuple[list, list] | None:
        """(up, down), up_k = sqrt(d_k) = 1 / down_k, for the square classes d
        (:func:`square_classes`) of the constants, the n x n mats and the
        n-vectors vecs: all are rational in the basis up_k e_k.  Or None, at
        once without a tower entry or with a float: rational and float input
        never reach the solve."""
        kinds = {type(v) for _, es in self.brackets for _, v in es}
        kinds.update(type(x) for M in mats for row in M for x in row)
        kinds.update(type(x) for v in vecs for x in v)
        if Ext not in kinds or not kinds <= {Fraction, Ext}:
            return None
        entries = [((i, j, k), v) for (i, j), es in self.brackets for k, v in es]
        entries += [((i, j), x) for M in mats for i, row in enumerate(M)
                    for j, x in enumerate(row) if x]
        entries += [((i,), x) for v in vecs for i, x in enumerate(v) if x]
        d = square_classes(self.dim, entries)
        return d and ([s_sqrt(Fraction(x)) for x in d], [s_sqrt(Fraction(1, x)) for x in d])

    def rescaled(self, up: list, down: list) -> "LieAlgebra":
        """The algebra in the basis up_k e_k, down_k = 1 / up_k:
        c'_ij^k = up_i up_j c_ij^k down_k, one scaling per stored constant."""
        table = {(i, j): {k: up[i] * up[j] * v * down[k] for k, v in es}
                 for (i, j), es in self.brackets}
        return LieAlgebra.from_brackets(
            self.dim, table, list(self.basis_names), self.mode, check=False)

    @cached_property
    def center(self) -> Subspace:
        """Kernel of the joint adjoint action, as a null space of stacked ads."""
        rows = [row for ad in self.ad_values()[0] for row in ad.N]  # over a den: same kernel
        return Subspace.from_vectors(self.dim, nullspace(_distinct_lines(rows), self.dim))

    @cached_property
    def lower_central_series(self) -> "LowerCentralSeries":
        """g, [g, g], [g, [g, g]], ... down to stabilization."""
        current = Subspace.from_vectors(self.dim, [self.basis_vector(i) for i in range(self.dim)])
        terms = [current]
        while True:
            # [g, V] is spanned by the columns of ad_w, w in the basis of V
            ads = [ad_value(self, self.values([list(w)])[0]) for w in current.basis]
            cols = _distinct_lines([col for ad in ads for col in ad.T.N])
            nxt = Subspace.from_vectors(self.dim, cols)
            if nxt.dim == current.dim:
                return LowerCentralSeries(tuple(terms), False, None)
            terms.append(nxt)
            current = nxt
            if nxt.dim == 0:
                return LowerCentralSeries(tuple(terms), True, len(terms) - 1)

    def basis_vector(self, i: int) -> Vec:
        zero, one = units(self.floats)
        return [one if t == i else zero for t in range(self.dim)]

    def _operands(self, *mats: Mat) -> tuple[dict, int | None, object, list[Mat], int, object]:
        """(table, den, zero, ints, dm, values): the one route decision of the
        readers of the table, for it and the matrices that act with it, on the
        field of the algebra's mode.  A rational algebra with rational or
        all-int mats gives the integer table, c_ij^k = entry / den, the
        numerators of mats over dm and the zero 0; otherwise the stored
        constants, den None, mats as they are over 1 and the mode's zero, 0.0
        or ZERO.  values(Ns, d) makes the route's values Ns / d: class values
        (``tower.TowerOver``) in exact mode, integers straight into the class 1
        off the integer table, MatOvers in float mode."""
        table, den = self._tables()
        scaled = _int_rows(*mats) if den is not None else None
        if scaled is None:  # the stored constants; a cached table with a den holds integers
            over = lambda Ns, d: [MatOver(N) * Fraction(1, d) for N in Ns]  # noqa: E731
            return ((table if den is None else self._stored), None, units(self.floats)[0],
                    list(mats), 1, over if self.floats else tower_values)
        classes = lambda Ns, d: [TowerOver({1: N}, d) for N in Ns]  # noqa: E731  no second scan
        return table, den, 0, scaled[0], scaled[1] or 1, classes

    def values(self, *mats: Mat) -> list[MatOver]:
        """The matrices that act with the table, as values on its field: the
        numerators of :meth:`_operands` over their common denominator."""
        *_, ints, dm, values = self._operands(*mats)
        return values(ints, dm)

    def ad_values(self, *mats: Mat) -> tuple[list[MatOver], list[MatOver]]:
        """(ad_{b_i} for each i, :meth:`values` of mats), entry (k, j) of ad_{b_i}
        c_ij^k, on the field of :meth:`_operands`: the one reader of the table
        for ad_{b_i}.  Off the integer table each entry is a constant or its
        negative, the bracket columns bit for bit."""
        table, den, zero, ints, dm, values = self._operands(*mats)
        n, zero = self.dim, 0 if values is tower_values else zero  # int 0: split fast
        ads = [[[zero] * n for _ in range(n)] for _ in range(n)]
        for (p, q), entries in table.items():
            for k, v in entries.items():
                ads[p][k][q], ads[q][k][p] = v, -v
        return values(ads, den or 1), values(ints, dm)


def _distinct_lines(rows: list[Vec]) -> list[Vec]:
    """Integer rows as one primitive row per line, first nonzero entry positive,
    zero rows dropped: the same row space and RREF.  Other rows as they are."""
    if not all(type(x) is int for row in rows for x in row):
        return rows
    signed = [(g if next(filter(None, r)) > 0 else -g, r) for r in rows if (g := math.gcd(*r))]
    return list(map(list, dict.fromkeys(tuple(x // g for x in r) for g, r in signed)))


def _brackets(table: dict, integers: bool, zero, rows: list, pairs: list) -> list:
    """[x_a, x_b] for each (a, b) of pairs, x_a = rows[a], in one pass over the table in
    pair order: each sum x_a[i] x_b[j] - x_a[j] x_b[i] is skipped on exact zeros at both
    sides, and a coefficient is zero when it is 0 (integers), else by tolerance."""
    out = [[zero] * len(rows[0]) for _ in pairs] if rows else [[] for _ in pairs]
    operands = [(rows[a], rows[b], acc) for (a, b), acc in zip(pairs, out)]
    for (i, j), entries in table.items():
        for X, Y, acc in operands:
            if (not X[i] or not Y[j]) and (not X[j] or not Y[i]):
                continue
            coeff = X[i] * Y[j] - X[j] * Y[i]
            if coeff if integers else not s_is_zero(coeff):
                for k, v in entries.items():
                    acc[k] += coeff * v
    return out


def bracket(L: LieAlgebra, X: Vec, Y: Vec) -> Vec:
    """[X, Y] by bilinear expansion of the structure constants, on the field
    of :meth:`LieAlgebra._operands`: rational (or int) X and Y on a rational
    algebra run on integers."""
    if len(X) != L.dim or len(Y) != L.dim:
        raise DimensionMismatch("vector length != algebra dimension")
    table, den, zero, (rows,), d, _ = L._operands([X, Y])
    (acc,) = _brackets(table, den is not None, zero, rows, [(0, 1)])
    if den is not None:
        acc = [Fraction(a, den * d * d) if a else ZERO for a in acc]
    return acc


def ad_value(L: LieAlgebra, X: MatOver) -> MatOver:
    """ad_x as a value for x the one row of X, column j = [x, b_j]: one pass
    over the table on the field of :meth:`LieAlgebra._operands`, numerator
    (k, j) = sum_i x_i c_ij^k.  Off the integer table the numerators are the
    bracket columns bit for bit: x_i enters where bracket's tolerance keeps
    it, the sums run in pair order."""
    if len((rows := X.N[:1])[0]) != L.dim:
        raise DimensionMismatch("vector length != algebra dimension")
    table, den, zero, ((x,),), dx, values = L._operands(rows)
    n = L.dim
    N = [[zero] * n for _ in range(n)]
    live = [not s_is_zero(a) for a in x]
    for (p, q), entries in table.items():
        lp, lq = live[p], live[q]
        if lp or lq:
            a, b = x[p], x[q]
            for k, v in entries.items():
                row = N[k]
                if lp:
                    row[q] += a * v
                if lq:
                    row[p] -= b * v
    return values([N], (den or 1) * dx * X.den)[0]


def pair_brackets(L: LieAlgebra, X: MatOver, pairs: list) -> MatOver:
    """Row p: [x_a, x_b] for the p-th pair (a, b), x_a the row a of X, from its
    numerators: one pass over the table on the field of
    :meth:`LieAlgebra._operands` for all pairs, each row the :func:`bracket` of
    its two rows bit for bit."""
    table, den, zero, (rows,), dx, values = L._operands(X.N)
    N = _brackets(table, den is not None, zero, rows, pairs)
    return values([N], (den or 1) * dx * dx * X.den ** 2)[0]


def basis_brackets(L: LieAlgebra, pairs: list) -> MatOver:
    """Row p: [b_a, b_b] for the p-th pair (a, b), the column b of ad_a: the stored constants,
    negated for a > b, on the field of :meth:`LieAlgebra._operands`, ``ad_values``'s bits."""
    table, den, zero, _, _, values = L._operands()
    N = [[zero] * L.dim for _ in pairs]
    for row, (a, b) in zip(N, pairs):
        for k, v in table.get((min(a, b), max(a, b)), {}).items():
            row[k] = v if a < b else -v
    return values([N], den or 1)[0]


def nijenhuis_columns(L: LieAlgebra, J: MatOver) -> MatOver:
    """[J, J] on the pairs i < j, in order, as the columns of one value, J a value on
    the field of L's values, at the cost of the nonzero terms: with row m of P_i the
    vector M_i b_m = [J b_i, b_m] - J [b_i, b_m], column (i, j) is
    sum_m J_mj P_i[m] - J P_i[j] = M_i J b_j - J M_i b_j.  Four row-wise products
    on the nonzero constants (``LieAlgebra._class_tables``) and the nonzeros of J,
    class pair by class pair (``tower._class_products``, TowerOver's): [J b_i, b_m]
    from one pass over the table, J_ai entering where :func:`ad_value` keeps it;
    J [b_a, b_b], a < b, from the stored brackets and J's columns, its negative at
    (b, a); then the two sums over m.  Each entry sums over m ascending from the
    field's zero, as the matrix products M_i = ad_{J b_i} - J ad_i, M_i J and J M_i
    sum it, float bits included."""
    n, tower = L.dim, isinstance(J, TowerOver)
    zero, pairs = 0 if tower else 0.0, [(i, j) for i in range(n) for j in range(i + 1, n)]
    Js = _live(J.parts) if tower else {1: J.N}
    by_column = {s: _int_index(M) for s, M in Js.items()}  # nz[m]: (k, J_km)
    columns = {s: list(zip(*M)) for s, M in Js.items()}
    live = columns if tower else {1: [[0.0 if x and s_is_zero(x) else x for x in col]
                                      for col in columns[1]]}
    classes, den = L._class_tables
    first = {r: [[] for _ in range(n)] for r in classes}  # first[r][a]: (m n + k, c_am^k)
    for r, table in classes.items():
        for (p, q), entries in table.items():
            first[r][p] += [(q * n + k, v) for k, v in entries.items()]
            first[r][q] += [(p * n + k, -v) for k, v in entries.items()]
    at = sorted(set().union(*classes.values()))  # the pairs a < b with a bracket
    brackets = {r: [[table[p].get(k, zero) for k in range(n)] if p in table else [zero] * n
                    for p in at] for r, table in classes.items()}
    S1 = _class_products(live, first, n * n, zero)  # row i: [J b_i, b_m] at m n + k
    S2 = _class_products(brackets, by_column, n, zero)  # row q: J [b_a, b_b], (a, b) = at[q]
    P = {}  # row i n + m: row m of P_i
    for u in S1.keys() | S2.keys():
        P[u] = rows = ([row[m * n:m * n + n] for row in S1[u] for m in range(n)] if u in S1
                       else [[zero] * n for _ in range(n * n)])
        for (a, b), t in zip(at, S2.get(u, ())):
            rows[a * n + b] = list(map(operator.sub, rows[a * n + b], t))
            rows[b * n + a] = list(map(operator.add, rows[b * n + a], t))
    none = lambda: [[zero] * n for _ in pairs]  # noqa: E731  a row per pair
    out, start, by_row = {}, 0, {u: _int_index(transpose(R)) for u, R in P.items()}
    for i in range(n):  # sum_m J_mj P_i[m] for the pairs (i, j), j > i
        for w, rows in _class_products({s: cols[i + 1:] for s, cols in columns.items()},
                                       {u: nz[i * n:i * n + n] for u, nz in by_row.items()},
                                       n, zero).items():
            if w not in out:
                out[w] = none()
            out[w][start:start + len(rows)] = rows
        start += n - 1 - i
    JM = _class_products({u: [R[i * n + j] for i, j in pairs] for u, R in P.items()},
                         by_column, n, zero)  # J P_i[j]
    for w, rows in JM.items():
        out[w] = [list(map(operator.sub, x, y)) for x, y in zip(out.get(w) or none(), rows)]
    by_k = lambda R: [list(c) for c in zip(*R)] if pairs else [[] for _ in range(n)]  # noqa: E731
    if not tower:
        return MatOver(by_k(out.get(1) or none()))
    parts = {w: by_k(rows) for w, rows in out.items()}
    return TowerOver({1: by_k(none()), **parts}, den * J.den ** 2)


def in_basis(L: LieAlgebra, Q: Mat, Q_inv: Mat) -> LieAlgebra:
    """L in the basis b1, b2, ... whose j-th vector is column j of Q, Q_inv the
    inverse of Q: c'_ab = Q_inv [q_a, q_b] on the pairs a < b."""
    cols, pairs = transpose(Q), list(itertools.combinations(range(L.dim), 2))
    images = mat_vecs(Q_inv, [bracket(L, cols[a], cols[b]) for a, b in pairs])  # zeros drop
    return LieAlgebra.from_brackets(L.dim, {p: dict(enumerate(w)) for p, w in zip(pairs, images)},
                                    [f"b{i+1}" for i in range(L.dim)], L.mode, check=False)


def ad_matrix(L: LieAlgebra, X: Vec) -> Mat:
    """Matrix of ad_X, column j = [X, b_j]."""
    return ad_value(L, L.values([X])[0]).mat()


def jacobi_check(L: LieAlgebra) -> list[tuple[int, int, int]]:
    """Triples (i, j, k), i<j<k, where the cyclic Jacobi sum is nonzero.

    One pass over the table: each stored c_ij^k meets only the stored brackets
    [b_k, b_m], and c_ij^k [b_k, b_m] adds to the Jacobiator of the sorted
    triple of (i, j, m), with sign -1 exactly when i < m < j (the Jacobiator is
    alternating).  Terms with m in {i, j} cancel inside their own triple.  On a
    central table no target has a partner, so the pass is O(nnz)."""
    table, _ = L._tables()  # integers over one denominator: the same zeros
    partners: list[list] = [[] for _ in range(L.dim)]  # k -> (m, s, e): [b_k, b_m] = s e
    for (p, q), entries in table.items():
        partners[p].append((q, 1, entries))
        partners[q].append((p, -1, entries))
    sums: dict = {}  # sorted triple -> {t: b_t component of its Jacobiator}
    for (i, j), entries in table.items():
        for k, v in entries.items():
            for m, sign, target in partners[k]:
                if m == i or m == j:
                    continue
                coeff = v if (sign > 0) != (i < m < j) else -v
                acc = sums.setdefault(tuple(sorted((i, j, m))), {})
                for t, w in target.items():
                    acc[t] = acc.get(t, 0) + coeff * w
    return sorted(t for t, acc in sums.items() if not all(map(s_is_zero, acc.values())))


center = operator.attrgetter("center")  # center(L) is L.center


@dataclass(frozen=True)
class LowerCentralSeries:
    terms: tuple  # Subspaces: g, [g,g], [g,[g,g]], ... down to stabilization
    is_nilpotent: bool
    step: int | None  # number of nonzero terms when nilpotent


lower_central_series = operator.attrgetter("lower_central_series")


@dataclass(frozen=True)
class KillingForm:
    matrix: tuple
    inertia: tuple  # (n_plus, n_minus, n_zero)
    definiteness: str


def killing_form(L: LieAlgebra) -> KillingForm:
    """B(X, Y) = trace(ad_X ad_Y) on the basis, with a definiteness report."""
    n, ads = L.dim, L.ad_values()[0]
    rows, cols = [_flat(ad.N) for ad in ads], [_flat(ad.T.N) for ad in ads]
    B = zeros(n, n)
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        B[i][j] = B[j][i] = dot(rows[i], cols[j])  # sum over (a, b) of ad_i[a][b] ad_j[b][a]
    B = (MatOver.of(B) * Fraction(1, ads[0].den ** 2 if ads else 1)).mat()
    pos, neg, zero = inertia_symmetric(B)
    if pos and neg:
        label = "indefinite"
    elif pos or neg:
        label = ("positive" if pos else "negative") + ("_semidefinite" if zero else "_definite")
    else:
        label = "zero"
    return KillingForm(tuple(tuple(r) for r in B), (pos, neg, zero), label)


def derivations(L: LieAlgebra) -> Subspace:
    """Solution space of D[X,Y] = [DX,Y] + [X,DY] in End(g).

    Elements are row-major flattened N x N matrices (ambient dim N^2).
    """
    n, ads = L.dim, [ad.N for ad in L.ad_values()[0]]  # over a den: same kernel
    rows, zero = [], 0.0 if L.floats else 0
    for i, j in itertools.combinations(range(n), 2):
        for m in range(n):
            row = [zero] * (n * n)
            for t in range(n):
                row[m * n + t] += ads[i][t][j]  # D [b_i, b_j] on b_m: sum_t c_ij^t d_mt
                row[t * n + i] += ads[j][m][t]  # -[D b_i, b_j]: -sum_t d_ti c_tj^m
                row[t * n + j] -= ads[i][m][t]  # -[b_i, D b_j]: -sum_t d_tj c_it^m
            rows.append(row)
    return Subspace.from_vectors(n * n, nullspace(rows, n * n))
