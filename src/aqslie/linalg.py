"""Small dense linear algebra over the scalar tower (exact) or floats.

Matrices are lists of rows, vectors plain lists, each of one field: exact
scalars, or floats alone.  A computation decides its field once, as values
of one of two kinds: exact, ``tower.TowerOver``, one integer matrix per
square class over one denominator (a rational matrix is the class 1 alone),
or float, :class:`MatOver`, the matrix itself over 1.  ``LieAlgebra.values``
and ``MatOver.of`` decide, and ``mat`` divides a value back where it leaves.
The list kernels decide per call:

* rational (or all-int) input runs on Python integers over a common
  denominator, decided by ``_int_scaled``: products (Gustavson's row-wise
  product, as on every field; one per ``mat_vecs``),
  ``mat_add``/``mat_sub``/``mat_scale``, ``dot``, ``mat_eq``, ``max_abs``,
  fraction-free Gauss-Jordan with row-content removal (``rref``, ``rank``,
  ``nullspace``, ``solve``, ``mat_solve``), Bareiss (``det``), Krylov
  minimal polynomials of integer vectors with their integer roots found by
  sign-variation bisection (``eig_sym_exact``, no characteristic polynomial,
  nothing factored) and fraction-free congruence
  (``inertia_symmetric``).  On all-int input products, sums and scalings
  return ints, and elimination, spectra and inertia what the same values
  give as Fractions;
* a tower matrix takes its spectrum through rho(M), the rational matrix of
  the same Q-linear map in the basis sqrt(t) e_j over its square classes t
  (restriction of scalars), its other eliminations per scalar;
* tower and float lists are per scalar: products are one sparse fold,
  ``_fold``, the row-wise product over the pairs of nonzero entries from
  ZERO on exact lists and 0.0 on float ones, indexed by ``_int_index`` as
  every product is; floats use tolerance-based zero tests and magnitude
  pivoting, and make their constants (identities, free kernel entries) in floats.

The exact routes return the same values: a normalised ``Fraction`` is
unique.  ``nullspace``, ``solve`` and ``mat_solve`` read the integer rows
and pivots of ``_reduced`` and divide only the entries they return; ``rref``
divides every entry back, for ``Subspace.from_vectors``.  ``eigenspaces``
serves every eigendecomposition of a g-symmetric operator (the float
eigenvalue clustering lives only there).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import IrrationalSpectrum
from .scalars import (
    ONE,
    ZERO,
    get_tolerance,
    is_exact,
    s_abs,
    s_div,
    s_eq,
    s_is_zero,
    s_lt,
    s_mul,
    s_neg,
    s_sign,
    s_sub,
    units,
)

Vec = list
Mat = list


def zeros(m: int, n: int, floats: bool = False) -> Mat:
    return [[units(floats)[0]] * n for _ in range(m)]


def identity(n: int, floats: bool = False) -> Mat:
    zero, one = units(floats)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_copy(M: Mat) -> Mat:
    return [row[:] for row in M]


def transpose(M: Mat) -> Mat:
    return [list(col) for col in zip(*M)] if M else []


# Fraction's slots; the public properties cost a Python call each, and
# _int_scaled is the integer kernels' entry
_NUMERATOR = operator.attrgetter("_numerator")
_DENOMINATOR = operator.attrgetter("_denominator")
_is_float = float.__instancecheck__  # isinstance(x, float) as a callable for map


def _int_scaled(xs) -> tuple[list[int], int | None] | None:
    """The field decision of every integer route, on a flat sequence xs:
    (ints, den) with xs[i] == ints[i] / den when every entry is a Fraction;
    (ints, None) when every entry is an int, the integer cores' own input,
    whose results stay int; None otherwise (tower, float or mixed kinds)."""
    if {Fraction}.issuperset(map(type, xs)):
        nums, dens = list(map(_NUMERATOR, xs)), list(map(_DENOMINATOR, xs))
        den = math.lcm(*dens)
        if den == 1:
            return nums, 1
        return [x * (den // d) for x, d in zip(nums, dens)], den
    return (list(xs), None) if {int}.issuperset(map(type, xs)) else None


def _int_rows(*mats: Mat) -> tuple[list[Mat], int | None] | None:
    """_int_scaled of all entries of mats together, in their row shapes."""
    flat: list = []
    for M in mats:
        for row in M:
            flat += row
    scaled = _int_scaled(flat)
    if scaled is None:
        return None
    ints, at, out = scaled[0], 0, []
    for M in mats:
        rows = []
        for row in M:  # each row takes the next len(row) integers
            rows.append(ints[at:(at := at + len(row))])
        out.append(rows)
    return out, scaled[1]


def _back(N, *dens) -> Mat:
    """The integer matrix N over the product of the denominators that are not
    None; N itself when all are None (all-int input stays int)."""
    dens = [d for d in dens if d is not None]
    if not dens:
        return N
    den = math.prod(dens)
    return [[Fraction(t, den) if t else ZERO for t in row] for row in N]


def _flat(M: Mat) -> list:
    return [x for row in M for x in row]


def diag_scaled(A: Mat, left: Vec | None, right: Vec | None) -> Mat:
    """diag(left) A diag(right), None for the identity: on integers for a rational (or
    all-int) A and sides, else one product per nonzero entry and scaled side, zeros kept."""
    sides = [([1] * k, None) if d is None else _int_scaled(d)
             for d, k in ((left, len(A)), (right, len(A[0]) if A else 0))]
    if all(sides) and (sa := _int_rows(A)):
        (ls, dl), (rs, dr) = sides
        return _back([[lv * x * rv for x, rv in zip(row, rs)] for lv, row in zip(ls, sa[0][0])],
                     sa[1], dl, dr)
    if left is not None:
        A = [[s_mul(lv, x) if x else x for x in row] for lv, row in zip(left, A)]
    if right is None:
        return [list(row) for row in A]
    return [[s_mul(x, rv) if x else x for rv, x in zip(right, row)] for row in A]


def _int_products(rows: list[list[int]], cols: list[list[int]]) -> list[list[int]]:
    """[[row . col for col in cols] for row in rows] on integers: ``_rowwise`` on
    the nonzero entries of cols, indexed once (a pair sums as far as zip goes)."""
    return _rowwise(rows, _int_index(cols), len(cols), 0)


def _int_index(cols: list[Vec], n: int | None = None, every=False, near_zero=False) -> list:
    """nz[j] = [(k, col[j]) for each col k nonzero at j < n], ``_rowwise``'s index of
    integers, scalars or floats, n the longest col by default; with every at each
    j < n, with near_zero only where col[j] is not near zero."""
    js = range(max(map(len, cols), default=0) if n is None else n)
    nz = [[] for _ in js]
    for k, col in enumerate(cols):
        for j in js if every else itertools.compress(js, col):
            if not (near_zero and s_is_zero(col[j])):
                nz[j].append((k, col[j]))
    return nz


def _rowwise(rows: list[Vec], nz: list[list[tuple]], width: int, zero, every=False) -> Mat:
    """Gustavson's row-wise product (ACM TOMS 4(3), 1978), nz[j] holding (k, b)
    for each entry b at j of column k that makes a pair: a row meets nz[j] only
    at its nonzero j (at every j with every), and k sums zero + row[j] b in order."""
    out, js = [], range(len(nz))
    for row in rows:
        out.append(acc := [zero] * width)
        for j in js if every else itertools.compress(js, row):
            r = row[j]
            for k, b in nz[j]:
                acc[k] += r * b
    return out


def mat_vecs(M: Mat, vs: list[Vec]) -> list[Vec]:
    """[M v for v in vs]: one integer product for the vs rational (or all-int) with
    M, each over its own denominator, and one sparse fold (no near-zero v[j]) for the rest."""
    svs = [_int_scaled(v) for v in vs]
    sm = _int_rows(M) if any(svs) else None
    ints = iter(_int_products([sv[0] for sv in svs if sv], sm[0][0])) if sm else None
    rest = [v for v, sv in zip(vs, svs) if not (sm and sv)]
    folded = zip(*_fold(M, rest, near_zero=True)) if rest else None
    return [
        _back([next(ints)], sm[1], sv[1])[0] if sm and sv
        else list(next(folded, ()))  # () when M has no rows
        for sv in svs
    ]


def mat_vec(M: Mat, v: Vec) -> Vec:
    return mat_vecs(M, [v])[0]


def mat_mul(A: Mat, B: Mat) -> Mat:
    Bt = transpose(B)
    sa = _int_rows(A)
    sb = _int_rows(Bt) if sa is not None else None
    if sb is not None:
        return _back(_int_products(sa[0][0], sb[0][0]), sa[1], sb[1])
    return _fold(A, Bt)


def _fold(rows: list[Vec], cols: list[Vec], near_zero: bool = False) -> Mat:
    """[[zero + row[0] col[0] + row[1] col[1] + ... for col in cols] for row in rows]
    bit for bit, zero 0.0 when the lists hold floats, else ZERO: ``_rowwise`` over
    the pairs of nonzero entries, indexed by ``_int_index``.  The terms it skips are
    zeros, which change no exact sum and no float sum from 0.0 (such a sum is never
    -0.0).  An inf or a nan makes every pair visited (0 inf is nan).  With near_zero,
    only the col[j] not near zero make pairs."""
    n = min(map(len, [*rows, *cols]), default=0)  # zip's length
    floats = list(filter(_is_float, itertools.chain(*rows, *cols)))
    dense = not all(map(math.isfinite, floats))
    nz = _int_index(cols, n, dense, near_zero)
    return _rowwise(rows, nz, len(cols), 0.0 if floats else ZERO, dense)


def _entrywise(A: Mat, B: Mat, op) -> Mat:
    """A op B entry by entry, op operator.add or .sub: as integers over the common
    denominator of two rational (or two all-int) matrices of one shape."""
    scaled = _int_rows(A, B) if list(map(len, A)) == list(map(len, B)) else None
    if scaled is not None:
        (ai, bi), den = scaled
        return _back([list(map(op, ra, rb)) for ra, rb in zip(ai, bi)], den)
    return [list(map(op, ra, rb)) for ra, rb in zip(A, B)]


def mat_add(A: Mat, B: Mat) -> Mat:
    return _entrywise(A, B, operator.add)


def mat_sub(A: Mat, B: Mat) -> Mat:
    return _entrywise(A, B, operator.sub)


def mat_scale(M: Mat, c) -> Mat:
    """c M.  The int 1 scales nothing in any field; an int or Fraction c times
    a rational (or int) M runs on integers."""
    if type(c) is int and c == 1:
        return [list(row) for row in M]
    sc = _int_scaled([c])
    sm = _int_rows(M) if sc is not None else None
    if sm is None:
        return [[s_mul(c, x) for x in row] for row in M]
    (num,), den = sc
    return _back([[num * x for x in row] for row in sm[0][0]], sm[1], den)


def mat_eq(A: Mat, B: Mat) -> bool:
    scaled = _int_rows(A, B)  # one denominator for both: equal when the integers are
    eq = scaled[0][0] == scaled[0][1] if scaled else all(map(s_eq, _flat(A), _flat(B)))
    return list(map(len, A)) == list(map(len, B)) and eq


def vec_sub(u: Vec, v: Vec) -> Vec:
    return mat_sub([u], [v])[0]


def vec_scale(v: Vec, c) -> Vec:
    return [s_mul(c, x) for x in v]


def vec_is_zero(v: Vec) -> bool:
    return all(map(s_is_zero, v))


def vec_eq(u: Vec, v: Vec) -> bool:
    return len(u) == len(v) and all(s_eq(a, b) for a, b in zip(u, v))


def dot(u: Vec, v: Vec):
    su = _int_scaled(u)
    sv = _int_scaled(v) if su is not None else None
    if sv is not None:  # two vectors leave no index to amortise
        return _back([[sum(map(operator.mul, su[0], sv[0]))]], su[1], sv[1])[0][0]
    return _fold([u], [v])[0][0]


def max_abs(entries):
    """The largest |x| over entries: a Fraction on integers for rational input
    (ZERO for none), else by ``s_lt``, exact on the tower and by more than the
    tolerance on floats (0.0 for none), the first inf or nan being the worst.
    Exact zeros are skipped: comparing a tower maximum with each would cost an Ext.sign."""
    xs = list(entries)
    floats = any(map(_is_float, xs))
    scaled = None if floats else _int_scaled(xs := [x for x in xs if x])
    if scaled is not None:
        return Fraction(max(map(abs, scaled[0]), default=0), scaled[1] or 1)
    worst = 0.0 if floats else ZERO
    for x in dict.fromkeys(xs):  # an entry that repeats is compared once
        if isinstance(a := s_abs(x), float) and not math.isfinite(a):  # exact: no float()
            return a
        if s_lt(worst, a):
            worst = a
    return worst


def bilinear(u: Vec, G: Mat, v: Vec):
    """u^T G v."""
    return dot(u, mat_vec(G, v))


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------

def _pivot_row(M: Mat, rows: range, col: int, floats: bool) -> int | None:
    """The first row nonzero in col; with floats the first largest past the tolerance."""
    if not floats:
        return next((r for r in rows if M[r][col]), None)
    best, best_mag, tol = None, None, get_tolerance()
    for r in rows:
        mag = abs(M[r][col])
        if not mag <= tol and (best is None or mag > best_mag):
            best, best_mag = r, mag
    return best


def _rref_int(A: list[list[int]]) -> list[int]:
    """Fraction-free Gauss-Jordan in place: every pivot column ends with a
    single nonzero entry, in its pivot row; each combined row is divided by
    the gcd of its entries to keep them small.  Returns the pivot columns."""
    n_rows, n_cols = len(A), len(A[0])
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        if r >= n_rows:
            break
        p = next((i for i in range(r, n_rows) if A[i][c]), None)
        if p is None:
            continue
        A[r], A[p] = A[p], A[r]
        pr, a = A[r], A[r][c]
        for i in range(n_rows):
            f = A[i][c]
            if i == r or not f:
                continue
            row = [a * x - f * y for x, y in zip(A[i], pr)]
            g = math.gcd(*row)
            A[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
    return pivots


def _reduced(M: Mat) -> tuple[Mat, list[int], list | None]:
    """(R, pivots, heads), row r of the RREF of a nonempty M being R[r] / heads[r]
    on rational rows (fraction-free, ``_rref_int``); else R is the RREF, heads None."""
    rows = [_int_scaled(row) for row in M]  # a row's scale changes no RREF
    if M[0] and None not in rows:
        R = [r for r, _ in rows]
        pivots = _rref_int(R)
        return R, pivots, [row[c] for row, c in zip(R, pivots)]
    A, pivots, floats = mat_copy(M), [], any(map(_is_float, _flat(M)))
    for c in range(len(A[0])):
        if (r := len(pivots)) >= len(A):
            break
        p = _pivot_row(A, range(r, len(A)), c, floats)
        if p is None:
            continue
        A[r], A[p] = A[p], A[r]
        inv = units(floats)[1] / A[r][c]
        pr = A[r] = [inv * x for x in A[r]]
        for i, row in enumerate(A):
            if i != r and not s_is_zero(f := row[c]):
                A[i] = [x - f * y for x, y in zip(row, pr)]
        pivots.append(c)
    return A, pivots, None


def rref(M: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form (copy) and pivot column list."""
    if not M:
        return [], []
    R, pivots, heads = _reduced(M)
    if heads is not None:  # the rows past the pivots are zero
        heads += [1] * (len(R) - len(heads))
        R = [[Fraction(x, h) if x else ZERO for x in row] for row, h in zip(R, heads)]
    return R, pivots


def rank(M: Mat) -> int:
    return len(_reduced(M)[1]) if M and M[0] else 0


def _divided(column: Vec, heads: list | None) -> Vec:
    """Entry r of column over heads[r], the pivot rows of ``_reduced``'s integer
    rows (ZERO for 0); the column itself when heads is None (the RREF itself)."""
    if heads is None:
        return column
    return [Fraction(x, h) if x else ZERO for x, h in zip(column, heads)]


def _field_of(R: Mat, heads: list | None) -> tuple:
    """``units`` of the field of ``_reduced``'s rows R: a float RREF holds floats only."""
    return units(heads is None and bool(R[0]) and _is_float(R[0][0]))


def nullspace(M: Mat, n_cols: int | None = None) -> list[Vec]:
    """Deterministic kernel basis from the RREF (free columns ascending), in
    the field of M (exact when M has no rows)."""
    if n_cols is None:
        n_cols = len(M[0]) if M else 0
    if not M:
        return identity(n_cols)
    R, pivots, heads = _reduced(M)
    (zero, one), basis = _field_of(R, heads), []
    for free in range(n_cols):
        if free in pivots:
            continue
        v = [zero] * n_cols
        v[free] = one
        for c, x in zip(pivots, _divided([-row[free] for row in R[:len(pivots)]], heads)):
            v[c] = x
        basis.append(v)
    return basis


def solve(M: Mat, b: Vec) -> Vec | None:
    """One solution of M x = b (free variables zero), or None if inconsistent:
    when the RREF of [M | b] has a pivot in the b column."""
    if not M:
        return [] if vec_is_zero(b) else None
    n_cols = len(M[0])
    R, pivots, heads = _reduced([row[:] + [bv] for row, bv in zip(M, b)])
    if n_cols in pivots:
        return None
    x = [_field_of(R, heads)[0]] * n_cols
    for c, v in zip(pivots, _divided([row[n_cols] for row in R[:len(pivots)]], heads)):
        x[c] = v
    return x


def det(M: Mat):
    n = len(M)
    rows = [_int_scaled(row) for row in M]
    if None not in rows:
        return Fraction(_bareiss_det([r for r, _ in rows]), math.prod(d or 1 for _, d in rows))
    A, sign, result = mat_copy(M), 1, ONE
    floats = any(map(_is_float, _flat(A)))
    for c in range(n):
        if (p := _pivot_row(A, range(c, n), c, floats)) is None:
            return ZERO
        if p != c:
            A[c], A[p], sign = A[p], A[c], -sign
        result, inv = result * A[c][c], ONE / A[c][c]
        for i in range(c + 1, n):
            if not s_is_zero(A[i][c]):
                f = inv * A[i][c]
                A[i] = [x - f * y for x, y in zip(A[i], A[c])]
    return Fraction(sign) * result


def inverse(M: Mat) -> Mat:
    A = MatOver.of(M)  # the identity in its field: floats for a float value
    return mat_solve(A, MatOver.of(identity(len(M), type(A) is MatOver))).mat()


# ---------------------------------------------------------------------------
# values over 1 (float); exact values are tower.TowerOver
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True, eq=False)
class MatOver:
    """A float matrix N over 1 as a value, N and every operand of floats only,
    each operation the list kernel on N and the other operand's floats (the
    ``_fold`` route from 0.0).  Exact values are ``tower.TowerOver``; ``of`` decides."""

    N: Mat
    den = 1

    T = property(lambda self: self.regroup(transpose))

    @staticmethod
    def of(M: Mat) -> MatOver:
        """M as a value: a class value (``tower.tower_values``) when it holds no float."""
        from .tower import tower_values  # the tower form builds on this module
        return MatOver(M) if any(map(_is_float, _flat(M))) else tower_values([M])[0]

    def __getitem__(self, rows: slice) -> MatOver:
        return self.regroup(operator.itemgetter(rows))

    def regroup(self, fn) -> MatOver:
        """fn(N), for a linear fn: picks, moves, sums, diagonal scalings."""
        return MatOver(fn(self.N))

    def __matmul__(self, other: MatOver) -> MatOver:
        return MatOver(mat_mul(self.N, other.mat()))

    def on_rows(self, V: MatOver) -> MatOver:
        """Row k: self times row k of V, one ``mat_vecs`` call."""
        return MatOver(mat_vecs(self.N, V.mat()))

    def __add__(self, other: MatOver) -> MatOver:
        return MatOver(mat_add(self.N, other.mat()))

    def __sub__(self, other: MatOver) -> MatOver:
        return MatOver(mat_sub(self.N, other.mat()))

    def __neg__(self) -> MatOver:
        return self.regroup(lambda M: [[-x for x in row] for row in M])

    def __mul__(self, c) -> MatOver:
        """c self, c an int or a Fraction: the floats times float(c), the bits of c x
        (a Fraction times a float is its float times it); the int 1 copies."""
        return MatOver(mat_scale(self.N, 1 if c == 1 else float(c)))

    def __eq__(self, other: MatOver) -> bool:
        return mat_eq(self.N, other.mat())

    def is_zero(self) -> bool:
        """Every |entry| within the tolerance (``s_is_zero``): an inf or a nan is not."""
        return all(map(get_tolerance().__ge__, map(abs, _flat(self.N))))

    def max_abs(self) -> float:
        """max |N|, the residual of an identity: a float, 0.0 for none."""
        return max_abs([0.0, *_flat(self.N)])

    def eigenspaces(self, G: MatOver) -> list:
        """``eigenspaces`` of N / den and G.N."""
        return eigenspaces(self.N, G.N, self.den)

    def mat(self) -> Mat:
        return self.N


def stacked(values: list[MatOver]) -> MatOver:
    """The rows of all values, in order, as one value: class values class by class."""
    from .tower import TowerOver, _aligned  # the tower form builds on this module
    if values and isinstance(values[0], TowerOver):
        parts, den = _aligned(values)
        return TowerOver({t: [row for p in parts for row in p[t]] for t in parts[0]}, den)
    return MatOver([row for v in values for row in v.mat()])


def _solved(A: Mat, B: Mat) -> tuple[Mat, int | None]:
    """(X, den), A X = den B for a square A (ValueError when singular), off the
    RREF of [A | B] (``_reduced``): on rational rows row i of X is row i of the B
    block over its pivot, at the lcm of the pivots; else the RREF's, den None."""
    n, aug = len(A), [[*a, *b] for a, b in zip(A, B)]
    R, pivots, heads = _reduced(aug) if aug else ([], [], [])
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    if heads is None:
        return [row[n:] for row in R], None
    den = math.lcm(*heads)
    return [row[n:] if h == den else [x * (den // h) for x in row[n:]]
            for row, h in zip(R, heads)], den


def mat_solve(A: MatOver, B: MatOver) -> MatOver:
    """X with A X = B for a square A (ValueError when singular): a class value
    A on classes (``tower.tower_solve``), a float A off the RREF of the scalars."""
    from .tower import TowerOver, tower_solve
    if isinstance(A, TowerOver):
        return tower_solve(A, B)
    X, den = _solved(A.N, B.mat())
    return MatOver(X if den is None else _back(X, den))


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def _bareiss_det(M: list[list[int]]) -> int:
    A = [row[:] for row in M]
    n = len(A)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for c in range(n - 1):
        p = next((i for i in range(c, n) if A[i][c] != 0), None)
        if p is None:
            return 0
        if p != c:
            A[c], A[p] = A[p], A[c]
            sign = -sign
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                A[i][j] = (A[c][c] * A[i][j] - A[i][c] * A[c][j]) // prev
            A[i][c] = 0
        prev = A[c][c]
    return sign * A[n - 1][n - 1]


def char_poly(M: Mat) -> list:
    """Coefficients [1, c1, ..., cn] of det(xI - M), by Faddeev-LeVerrier on
    every exact field: c_k = -tr(M_k) / k, M_(k+1) = M (M_k + c_k I)."""
    n, coeffs, Mk = len(M), [ONE], mat_copy(M)
    for k in range(1, n + 1):
        coeffs.append(ck := s_div(s_neg(sum((Mk[i][i] for i in range(n)), ZERO)), Fraction(k)))
        if k < n:
            Mk = mat_mul(M, mat_add(Mk, mat_scale(identity(n), ck)))
    return coeffs


def _shifted(M: Mat, root) -> Mat:
    return [[s_sub(x, root) if i == j else x for j, x in enumerate(row)] for i, row in enumerate(M)]


def _min_poly(index: list[list[tuple]], v: list[int]) -> list[int]:
    """The minimal polynomial of v under the integer P indexed by ``_int_index``,
    highest degree first, read off the first Krylov vector P^d v that depends on
    v, ..., P^(d-1) v: forward fraction-free elimination of the rows [P^j v | e_j]
    until one reduces to [0 | c], c_0 v + ... + c_d P^d v = 0.  It divides the
    characteristic polynomial of P, so it is monic with integer coefficients
    (Gauss's lemma) and c / c_d is exact."""
    n, echelon = len(v), []  # (pivot, row), each row zero at the pivots before it
    for d in range(n + 1):
        row = v + [int(j == d) for j in range(n + 1)]
        for c, r in echelon:
            if row[c]:
                row = [r[c] * x - row[c] * y for x, y in zip(row, r)]
        if (pivot := next((c for c in range(n) if row[c]), None)) is None:
            return [x // row[n + d] for x in row[n:n + d + 1][::-1]]
        g = math.gcd(*row)
        echelon.append((pivot, [x // g for x in row]))
        v = _rowwise([v], index, n, 0)[0]


def _integer_roots(p: list[int], scale: Fraction) -> list[int]:
    """The roots of p, the minimal polynomial of a vector under the integer P =
    M / scale.  p is monic over the integers, so its rational roots are
    integers, all in (-B, B] for Cauchy's bound B = 1 + max |c_i|.  V(a), the
    sign changes of the coefficients of p(x + a), falls from a to b by at
    least the number of roots in (a, b] (the Budan-Fourier theorem; root
    isolation as in Collins and Akritas, SYMSAC 1976), so the search bisects
    only the intervals where V falls, at most deg p per halving.  A width-1
    (a, b] holds the root b when p(x + b) ends in 0 (synthetic division by
    x - b leaves no remainder), a repeated one when in 0, 0.  V falls exactly
    at the roots of a real-rooted p (a g-symmetric P); a non-real root makes
    it fall where no integer root lies and ends in the residual verdict.
    IrrationalSpectrum unless p splits into distinct integer factors."""
    def at(a: int) -> tuple[int, int, list[int]]:
        q = list(p)  # p(x + a): d rounds of Horner's rule, each dividing by x - a
        for end in range(len(q) - 1, 0, -1):
            for j in range(1, end + 1):
                q[j] += a * q[j - 1]
        signs = [c > 0 for c in q if c]
        return a, sum(map(operator.ne, signs, signs[1:])), q

    bound, roots = 1 + max(map(abs, p)), []
    stack = [(at(-bound), at(bound))]
    while stack:
        low, high = stack.pop()
        (lo, v_lo, _), (hi, v_hi, q) = low, high
        if v_lo == v_hi:
            continue
        if hi - lo > 1:
            mid = at((lo + hi) // 2)
            stack += [(mid, high), (low, mid)]  # the lower half first
        elif q[-1] == 0:
            if q[-2] == 0:
                raise IrrationalSpectrum(f"eigenvalue {hi * scale} repeats in a minimal "
                                         f"polynomial: matrix not diagonalizable")
            roots.append(hi)
    if len(roots) < len(p) - 1:
        raise IrrationalSpectrum(f"minimal polynomial does not split over the rationals "
                                 f"(residual degree {len(p) - 1 - len(roots)})")
    return roots


def eig_sym_exact(M: Mat, den: int = 1) -> list[tuple[Fraction, int, list[Vec]]]:
    """Exact eigendecomposition of the symmetric matrix M / den with rational
    spectrum: [(eigenvalue, multiplicity, basis)], eigenvalues ascending, each
    basis the ``nullspace`` of M - den eigenvalue I.

    Raises IrrationalSpectrum unless M is diagonalizable over the rationals
    (the tower stores roots of rationals only, and a symmetric matrix that
    splits over the tower with non-rational eigenvalues is outside the
    supported normal-form pipeline).

    A tower M runs as rho(M) (``tower.restricted``): rho is injective, so rho(M)
    has M's rational eigenvalues, each with m times its dimension over the m
    square classes, and is diagonalizable over the rationals exactly when M
    is.  The rational matrix (M or rho(M)) / den is scale P for its primitive
    integer multiple P, and each eigenvalue is r scale for an integer
    eigenvalue r of P.  They come from minimal polynomials of vectors read
    off their Krylov sequences (the idea of Wiedemann's method, IEEE Trans.
    Inf. Theory 32(1), 1986; H. Cohen, GTM 138, 2.2): for each e_k in turn,
    v = prod (P - r) e_k over the eigenvalues r found so far vanishes exactly
    when e_k lies in their eigenspaces; else the integer roots of v's minimal
    polynomial, found by sign-variation bisection (``_integer_roots``), are
    new eigenvalues.  Nothing is factored, so no size of the entries is too
    large.  A repeated or irrational root, or eigenspaces that do not span,
    raise.
    """
    from .tower import restricted  # the tower form builds on this module
    n, scaled = len(M), _int_rows(M)
    (ints,), d = scaled or restricted(M)
    content = math.gcd(*_flat(ints)) or 1
    P, scale = [[x // content for x in row] for row in ints], Fraction(content, (d or 1) * den)
    index, spaces = _int_index(P), {}
    for k in range(len(P)):
        if sum(map(len, spaces.values())) == n:
            break
        v = [int(i == k) for i in range(len(P))]
        for r in spaces:
            v = [x - r * y for x, y in zip(_rowwise([v], index, len(P), 0)[0], v)]
        for r in _integer_roots(_min_poly(index, v), scale) if any(v) else ():
            if r not in spaces:
                spaces[r] = nullspace(_shifted(P, r) if scaled else _shifted(M, r * scale * den))
    if (dim := sum(map(len, spaces.values()))) != n:
        raise IrrationalSpectrum(f"eigenspaces span {dim} of {n} dimensions: "
                                 f"matrix not diagonalizable")
    return [(r * scale, len(basis), basis) for r, basis in sorted(spaces.items())]


_JACOBI_SWEEPS = 60


def eigh_float(M: Mat) -> tuple[list[float], Mat]:
    """Cyclic Jacobi eigensolver for symmetric float matrices.

    Returns (eigenvalues, V) with V[:, k] the eigenvector of eigenvalue k;
    eigenvalues ascending.
    """
    n = len(M)
    A = [[float(x) for x in row] for row in M]
    V = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    for _ in range(_JACOBI_SWEEPS):
        off = math.sqrt(sum(A[i][j] ** 2 for i in range(n) for j in range(n) if i != j))
        if off < 1e-14:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(A[p][q]) < 1e-16:
                    continue
                theta = 0.5 * math.atan2(2 * A[p][q], A[q][q] - A[p][p])
                c, s = math.cos(theta), math.sin(theta)
                for k in range(n):
                    akp, akq = A[k][p], A[k][q]
                    A[k][p] = c * akp - s * akq
                    A[k][q] = s * akp + c * akq
                for k in range(n):
                    apk, aqk = A[p][k], A[q][k]
                    A[p][k] = c * apk - s * aqk
                    A[q][k] = s * apk + c * aqk
                for k in range(n):
                    vkp, vkq = V[k][p], V[k][q]
                    V[k][p] = c * vkp - s * vkq
                    V[k][q] = s * vkp + c * vkq
    pairs = sorted(range(n), key=lambda i: A[i][i])
    evals = [A[i][i] for i in pairs]
    vecs = [[V[r][i] for i in pairs] for r in range(n)]
    return evals, vecs


def eigh_g_float(M: Mat, G: Mat) -> tuple[list[float], Mat]:
    """Float eigendecomposition of a G-symmetric operator (G M = (G M)^T
    with G symmetric positive definite): conjugating by G^(1/2) gives an
    ordinary symmetric problem.  Returns (eigenvalues ascending, V) with
    V[:, k] the eigenvector of eigenvalue k (G-orthonormal columns)."""
    n = len(M)
    gd, gv = eigh_float(G)
    if any(d <= 0 for d in gd):
        raise ValueError("metric is not positive definite")
    sq = [math.sqrt(d) for d in gd]  # W = gv diag(sq) gv^T = G^(1/2), Winv its inverse
    W, Winv = (mat_mul([list(map(op, row, sq)) for row in gv], transpose(gv))
               for op in (operator.mul, operator.truediv))
    Ms = mat_mul(W, mat_mul(M, Winv))
    sym = [[(Ms[i][j] + Ms[j][i]) / 2 for j in range(n)] for i in range(n)]
    evals, U = eigh_float(sym)
    V = mat_mul(Winv, U)
    return evals, V


def eigenspaces(M: Mat, G: Mat, den: int = 1) -> list[tuple[object, int, list[Vec]]]:
    """[(eigenvalue, multiplicity, eigenbasis)] of a G-symmetric operator M / den
    (G M symmetric, G positive definite), eigenvalues ascending.

    The field is chosen once: exact entries go through eig_sym_exact, which
    reads the spectrum on M / den's own scale (and raises IrrationalSpectrum
    off the rationals); otherwise the generalized float problem of M is solved,
    consecutive eigenvalues equal under the global tolerance are clustered
    into one eigenspace, and each is divided by den.
    """
    if all(is_exact(x) for row in M for x in row):
        return eig_sym_exact(M, den)
    evals, V = eigh_g_float(M, G)
    clustered: list = []
    for ev, vec in zip(evals, transpose(V)):
        if clustered and s_eq(clustered[-1][0], ev):
            first, mult, basis = clustered[-1]
            clustered[-1] = (first, mult + 1, basis + [vec])
        else:
            clustered.append((ev, 1, [vec]))
    return [(s_div(ev, den), *rest) for ev, *rest in clustered] if den != 1 else clustered


def inertia_symmetric(M: Mat) -> tuple[int, int, int]:
    """Signature (n_plus, n_minus, n_zero) of a symmetric matrix.

    Float mode: Jacobi eigenvalue signs under the global tolerance.  Exact
    mode: congruence diagonalization (Sylvester's law).  W is the Schur
    complement left so far times a scalar of sign ``sign``; pivot d = W[k][k]
    counts with the sign of sign * d, and the next W is d W' - a a^T (a = row
    k).  Rational and all-int input runs on integers, each W divided by its
    content (so never larger than Bareiss's); other exact entries divide W
    by |d|.
    """
    n = len(M)
    if not all(is_exact(x) for row in M for x in row):
        evals, _ = eigh_float(M)
        pos = sum(1 for e in evals if s_sign(e) > 0)
        neg = sum(1 for e in evals if s_sign(e) < 0)
        return pos, neg, n - pos - neg
    scaled = _int_rows(M)
    W = scaled[0][0] if scaled is not None else mat_copy(M)
    pos = neg = 0
    sign = 1
    while W:
        k = next((i for i, row in enumerate(W) if row[i]), None)
        if k is None:
            pair = next(((i, j) for i, row in enumerate(W)
                         for j in range(i + 1, len(W)) if row[j]), None)
            if pair is None:
                break
            i, j = pair
            # row and column i += j makes the (i, i) entry 2 W[i][j] != 0
            W[i] = [x + y for x, y in zip(W[i], W[j])]
            for row in W:
                row[i] += row[j]
            k = i
        d, a = W[k][k], W[k]
        s = s_sign(d)
        if s == sign:
            pos += 1
        else:
            neg += 1
        sign *= s
        rest = [i for i in range(len(W)) if i != k]
        W = [[d * W[i][j] - W[i][k] * a[j] for j in rest] for i in rest]
        if scaled is None:
            inv = ONE / (s * d)
            W = [[x * inv for x in row] for row in W]
        elif (g := math.gcd(*_flat(W))) > 1:
            W = [[x // g for x in row] for row in W]
    return pos, neg, n - pos - neg


def is_positive_definite(G: Mat) -> bool:
    pos, neg, zero = inertia_symmetric(G)
    return neg == 0 and zero == 0


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Subspace:
    """Span of the given basis vectors inside an ambient coordinate space."""

    ambient_dim: int
    basis: tuple

    @staticmethod
    def from_vectors(ambient_dim: int, vectors: list[Vec]) -> "Subspace":
        """Independent spanning subset (deterministic, row-reduced)."""
        if not vectors:
            return Subspace(ambient_dim, ())
        R, pivots = rref([list(v) for v in vectors])
        kept = [tuple(R[i]) for i in range(len(pivots))]
        return Subspace(ambient_dim, tuple(kept))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: Vec) -> bool:
        return rank([list(b) for b in self.basis] + [list(v)]) == self.dim

    def equals(self, other: "Subspace") -> bool:
        """Same dimension, and one rank: the other basis stacked under this one adds none."""
        if self.dim != other.dim or self.ambient_dim != other.ambient_dim:
            return False
        return rank([list(b) for b in self.basis + other.basis]) == self.dim


def random_unimodular(n: int, rng, steps: int | None = None) -> Mat:
    """Random integer matrix with determinant +-1 (product of elementary ops)."""
    A = identity(n)
    steps = steps if steps is not None else 3 * n
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = Fraction(rng.choice((-2, -1, 1, 2)))
        A[i] = [x + c * y for x, y in zip(A[i], A[j])]
    for _ in range(n):
        i, j = rng.randrange(n), rng.randrange(n)
        A[i], A[j] = A[j], A[i]
        if rng.random() < 0.5:
            A[i] = [-x for x in A[i]]
    return A
