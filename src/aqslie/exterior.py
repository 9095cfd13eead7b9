"""Chevalley-Eilenberg exterior calculus on a Lie algebra.

Alternating k-forms are stored on strictly increasing index tuples, so forms
are alternating by construction.  The convention for the differential is

    d w (X_0..X_k) = sum_{i<j} (-1)^{i+j} w([X_i,X_j], X_0..^i..^j..X_k),

so on 1-forms d eta (X, Y) = -eta([X, Y]), the sign fixed throughout the
package, and d(theta^m) = - sum_{i<j} c_ij^m theta^i ^ theta^j.  ``ce_d``
and the columns d theta^I of each weight block are read off c_ij^k in one
pass over the algebra's structure table (integers over a common denominator
if rational); ``d_of_covector`` reads d of a 1-form off the table in one
pass as well, and ``d_of_pairs`` d of a 2-form off its product with the pair
brackets, so ``acm`` and the rank of eta differentiate no KForm.  The Betti
numbers never build the whole matrix of d_k; ``ce_d_matrix`` builds it for
the tests and the benchmark's per-layer timing.

Betti numbers are ranked by torus weight.  The diagonal derivations
D = diag(l) of the basis are the l with l_i + l_j = l_k wherever c_ij^k is
stored; theta^I has weight sum_{i in I} l_i under each of them.  A
derivation's action D* on forms commutes with d, so d maps each weight
space of Lambda^k into the same weight space of Lambda^{k+1}, and rank d_k
is the sum of the ranks of its weight blocks.  Each block takes its own
field route in ``linalg.rank``; a trivial torus (a conjugated basis, say)
leaves one block, the whole differential.  The Betti numbers are those of
the Chevalley-Eilenberg complex; ``ce_betti`` says when they are de Rham
Betti numbers (Nomizu).
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, compress
from math import comb

from .errors import DimensionMismatch, InternalContradiction, PreconditionError
from .lie_core import LieAlgebra
from .linalg import Mat, MatOver, Vec, _int_scaled, identity, nullspace, rank, stacked
from .scalars import ONE, ZERO, coerce, s_add, s_is_zero, s_mul, s_neg, units


@dataclass(frozen=True)
class KForm:
    degree: int
    dim: int
    coeffs: tuple  # ((indices tuple, scalar), ...) sorted, zero-free

    @staticmethod
    def make(degree: int, dim: int, terms: dict | None = None) -> "KForm":
        """Build from {index tuple: coeff}; tuples are sorted with sign."""
        if degree < 0 or degree > dim:
            return KForm(max(degree, 0), dim, ())
        acc: dict[tuple, object] = {}
        for idx, c in (terms or {}).items():
            c = coerce(c)
            if s_is_zero(c):
                continue
            if len(idx) != degree:
                raise DimensionMismatch(f"index tuple {idx} has wrong length")
            if len(set(idx)) != len(idx):
                continue
            if any(not 0 <= i < dim for i in idx):
                raise DimensionMismatch(f"index out of range in {idx}")
            key, sign = _sort_with_sign(tuple(idx))
            c = c if sign > 0 else s_neg(c)
            prev = acc.get(key, ZERO)
            acc[key] = s_add(prev, c)
        cleaned = tuple(sorted((k, v) for k, v in acc.items() if not s_is_zero(v)))
        return KForm(degree, dim, cleaned)

    def coeff(self, idx: tuple, zero=ZERO):
        key, sign = _sort_with_sign(tuple(idx))
        for k, v in self.coeffs:
            if k == key:
                return v if sign > 0 else s_neg(v)
        return zero

    def is_zero(self) -> bool:
        return not self.coeffs


def _sort_with_sign(idx: tuple) -> tuple[tuple, int]:
    lst = list(idx)
    sign = 1
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
    return tuple(lst), sign


def one_scalar_form(dim: int, c=ONE) -> KForm:
    return KForm.make(0, dim, {(): c})


def theta(i: int, dim: int) -> KForm:
    """Dual basis 1-form of b_i."""
    return KForm.make(1, dim, {(i,): ONE})


def covector_form(row: Vec) -> KForm:
    return KForm.make(1, len(row), {(i,): c for i, c in enumerate(row)})


def form_scale(a: KForm, c) -> KForm:
    return KForm.make(a.degree, a.dim, {k: s_mul(c, v) for k, v in a.coeffs})


def wedge(a: KForm, b: KForm) -> KForm:
    """Graded-commutative product; degree overflow gives the zero form."""
    if a.dim != b.dim:
        raise DimensionMismatch("forms live on different ambient dimensions")
    deg = a.degree + b.degree
    if deg > a.dim:
        return KForm.make(deg, a.dim)
    terms: dict[tuple, object] = {}
    for I, ca in a.coeffs:
        for J, cb in b.coeffs:
            if set(I) & set(J):
                continue
            key, sign = _sort_with_sign(I + J)
            c = s_mul(ca, cb)
            c = c if sign > 0 else s_neg(c)
            terms[key] = s_add(terms.get(key, ZERO), c)
    return KForm.make(deg, a.dim, terms)


def form_from_bilinear(M: Mat) -> KForm:
    """2-form from an antisymmetric matrix (entries above the diagonal)."""
    n = len(M)
    for i in range(n):
        for j in range(n):
            if not s_is_zero(s_add(M[i][j], M[j][i])):
                raise PreconditionError("matrix is not antisymmetric")
    return KForm.make(
        2, n, {(i, j): M[i][j] for i in range(n) for j in range(i + 1, n)}
    )


def bilinear_from_form(a: KForm, floats: bool = False) -> Mat:
    if a.degree != 2:
        raise DimensionMismatch("not a 2-form")
    n, zero = a.dim, units(floats)[0]
    M = [[zero] * n for _ in range(n)]
    for (i, j), c in a.coeffs:
        M[i][j] = c
        M[j][i] = s_neg(c)
    return M


# ---------------------------------------------------------------------------
# Chevalley-Eilenberg differential
# ---------------------------------------------------------------------------

def _d_targets(L: LieAlgebra) -> tuple[dict, int | None]:
    """({m: [(i, j, c_ij^m)] for i < j ascending}, den) from L._tables()."""
    table, den = L._tables()
    targets: dict[int, list] = {}
    for (i, j), entries in table.items():
        for m, v in entries.items():
            targets.setdefault(m, []).append((i, j, v))
    return targets, den


def _ce_d(targets: dict, den: int | None, terms) -> tuple[dict, int | None]:
    """d(sum c theta^I) over terms [(I, c)] in one pass: theta^I contributes
    (-1)^r theta^{I - I_r} ^ d theta^{I_r} for each position r (Leibniz),
    all into one accumulator {J: entry}.  Rational coefficients over
    rational constants sum integers: the entries are numerators over the
    returned denominator.  Other scalars add in the order of the term-by-term
    Leibniz sum, dropping entries that reach zero, so floats round alike;
    the entries are the coefficients and the denominator is None."""
    scaled = _int_scaled([c for _, c in terms]) if den is not None else None
    coeffs = scaled[0] if scaled is not None else [c for _, c in terms]
    acc: dict[tuple, object] = {}
    for (I, _), c in zip(terms, coeffs):
        for r, m in enumerate(I):
            rest = I[:r] + I[r + 1 :]
            for i, j, v in targets.get(m, ()):
                if i in rest or j in rest:
                    continue
                pi, pj = bisect(rest, i), bisect(rest, j)
                key = rest[:pi] + (i,) + rest[pi:pj] + (j,) + rest[pj:]
                # (-1)^r, the minus of d theta, and the sort of rest + (i, j)
                negative = (r + 1 + pi + pj) % 2
                if scaled is not None:
                    acc[key] = acc.get(key, 0) + (-c * v if negative else c * v)
                    continue
                t = s_mul(c, v if den is None else Fraction(v, den))
                if s_is_zero(t):
                    continue
                total = s_add(acc.get(key, ZERO), s_neg(t) if negative else t)
                if s_is_zero(total):
                    acc.pop(key, None)
                else:
                    acc[key] = total
    if scaled is None:
        return acc, None
    return {key: a for key, a in acc.items() if a}, den * (scaled[1] or 1)


def _d_columns(targets: dict, den: int | None, monomials) -> list[dict]:
    """[{J: entry} of d theta^I for I in monomials], the columns of d_k: over
    the integer table the numerators over den, else the scalars."""
    return [_ce_d(targets, den, [(I, ONE)])[0] for I in monomials]


def _over(acc: dict, den: int | None) -> dict:
    """The entries of acc over den, as Fractions; acc itself for None."""
    return acc if den is None else {key: Fraction(a, den) for key, a in acc.items()}


def ce_d(L: LieAlgebra, w: KForm) -> KForm:
    """Chevalley-Eilenberg differential of w, from the structure constants."""
    if w.dim != L.dim:
        raise DimensionMismatch("form does not live on this algebra")
    acc = _over(*_ce_d(*_d_targets(L), w.coeffs))
    return KForm(w.degree + 1, w.dim, tuple(sorted(acc.items())))


def d_of_pairs(P: MatOver, pairs: list) -> tuple[list[tuple], MatOver]:
    """(triples, one row over P's denominator) of d w, w a 2-form with matrix W, from
    P = C W, row p of C [b_a, b_b] for the p-th pair (a, b) of range(n): by dw(a, b, c) =
    -w([a, b], c) + w([a, c], b) - w([b, c], a), each nonzero P[p][l], l not in {a, b},
    adds to the sorted triple of {a, b, l} in pair order, with sign + when a < l < b.
    The triples are all of them, ascending; a tower P scatters class by class."""
    at = {t: k for k, t in enumerate(combinations(range(1 + max(map(max, pairs), default=-1)), 3))}

    def scatter(N: Mat) -> Mat:  # the integers of a class, or the floats of a float value
        acc = [0.0 if type(P) is MatOver else 0] * len(at)
        for (a, b), row in zip(pairs, N):
            for l in compress(range(len(row)), row):
                if l != a and l != b:
                    acc[at[tuple(sorted((a, b, l)))]] += row[l] if a < l < b else -row[l]
        return [acc]
    return list(at), P.regroup(scatter)


def d_of_covector(L: LieAlgebra, E: MatOver) -> MatOver:
    """The matrix of d eta, d eta(b_i, b_j) = -eta([b_i, b_j]), as a value, eta the one
    row of E, in one pass over the table on the field of ``LieAlgebra._operands``: for
    i < j stored, c_ij^l eta_l and its negative summed over l ascending from the zero,
    near-zero eta_l skipped, then negated (-0.0 where no float term): the ad route's bits."""
    table, den, zero, ((eta,),), de, values = L._operands(E.N[:1])
    live = [not s_is_zero(x) for x in eta]
    N = [[-zero] * L.dim for _ in eta]
    for (i, j), entries in table.items():
        plus = minus = zero
        for l in filter(live.__getitem__, entries):  # ascending, as stored
            plus += entries[l] * eta[l]
            minus += -entries[l] * eta[l]
        N[i][j], N[j][i] = -plus, -minus
    return values([N], (den or 1) * de * E.den)[0]


def _matrix(columns: list[dict], rows, zero) -> Mat:
    """The matrix with the given columns {J: entry} on the row keys rows."""
    index = {J: r for r, J in enumerate(rows)}
    M = [[zero] * len(columns) for _ in index]
    for c_i, column in enumerate(columns):
        for J, v in column.items():
            M[index[J]][c_i] = v
    return M


def ce_d_matrix(L: LieAlgebra, k: int) -> Mat:
    """Matrix of d: Lambda^k -> Lambda^{k+1}; column I is d theta^I."""
    n = L.dim
    targets, den = _d_targets(L)
    columns = [_over(col, den) for col in _d_columns(targets, den, combinations(range(n), k))]
    return _matrix(columns, combinations(range(n), k + 1), units(L.floats)[0])


def _torus_weights(L: LieAlgebra) -> list[int]:
    """The torus weight w_i of each basis index i, packed into one integer.

    The diagonal derivations diag(l) are the l with l_i + l_j = l_k for
    every stored c_ij^k: read off the stored support, so float and tower
    tables are graded exactly.  Over an integer basis v_1..v_r of them, w_i
    is sum_t v_t[i] B^t with B above twice any |sum_{i in I} v_t[i]|, so
    sums of weights over index sets are equal exactly when every
    coordinate is; a trivial torus gives every index the weight 0."""
    rows = [[(t == i) + (t == j) - (t == k) for t in range(L.dim)]
            for (i, j), entries in L.brackets for k, _ in entries]
    basis = [_int_scaled(v)[0] for v in nullspace(rows, L.dim)]
    B = 2 * L.dim * max((abs(x) for v in basis for x in v), default=0) + 1
    return [sum(v[i] * B**t for t, v in enumerate(basis)) for i in range(L.dim)]


def _weight_blocks(weights: list[int], k: int) -> dict[int, list[tuple]]:
    """{weight: [I, ...]}: the k-subsets I grouped by sum_{i in I} w_i."""
    blocks: dict[int, list[tuple]] = {}
    for I in combinations(range(len(weights)), k):
        blocks.setdefault(sum(map(weights.__getitem__, I)), []).append(I)
    return blocks


def _d_block(targets: dict, den: int | None, monomials, floats: bool) -> Mat:
    """The matrix of d on the span of the theta^I, I in monomials: the columns
    d theta^I, on the rows they reach, zero filled in the field (floats or not)."""
    columns = _d_columns(targets, den, monomials)
    rows = dict.fromkeys(J for col in columns for J in col)
    return _matrix(columns, rows, units(floats)[0] if den is None else 0)


def _graded_rank(targets: dict, den: int | None, weights: list, k: int, floats: bool) -> int:
    """rank d_k as the sum of the ranks of its weight blocks: d maps each
    weight space of Lambda^k into the same weight space of Lambda^{k+1}, so a
    block's rows are the (k+1)-subsets its columns reach."""
    blocks = (_d_block(targets, den, I, floats) for I in _weight_blocks(weights, k).values())
    return sum(rank(M) for M in blocks if M)  # a block that reaches no row has rank 0


def cocycles(L: LieAlgebra, monomials: list[tuple]) -> list[Vec]:
    """Basis of the closed forms sum_I c_I theta^I, I in monomials (of one
    degree), as the vectors (c_I) in the order of monomials: the kernel of
    the columns d theta^I.  On the pairs of m in a basis k (+) m of g these
    are the relative 2-cocycles Z^2(g, k) (Chevalley-Eilenberg, 1948)."""
    block = _d_block(*_d_targets(L), monomials, L.floats)  # none when d vanishes on them all
    return nullspace(block, len(monomials)) if block else identity(len(monomials), L.floats)


def ce_betti(L: LieAlgebra, k: int) -> int:
    """dim ker(d on Lambda^k) - dim im(d on Lambda^{k-1}), by exact ranks.

    These are invariant-cohomology dimensions of the algebra; they agree
    with de Rham Betti numbers of a compact quotient only in the nilpotent
    lattice case (Nomizu), so treat them as a proxy elsewhere.
    """
    return ce_bettis(L, [k])[k]


def ce_bettis(L: LieAlgebra, degrees: list[int]) -> dict[int, int]:
    """{k: ce_betti(L, k) for k in degrees}, ranking each differential once,
    one torus weight block at a time, in the rational basis of
    ``LieAlgebra.sqrt_basis`` when there is one (they do not depend on the basis)."""
    if any(k < 0 or k > L.dim for k in degrees):
        raise PreconditionError("degree out of range")
    if scales := L.sqrt_basis():
        L = L.rescaled(*scales)
    targets, den = _d_targets(L)
    weights = _torus_weights(L)
    ranks = {j: _graded_rank(targets, den, weights, j, L.floats)
             for j in range(L.dim) if {j, j + 1} & {*degrees}}
    return {k: comb(L.dim, k) - ranks.get(k, 0) - ranks.get(k - 1, 0) for k in degrees}


@dataclass(frozen=True)
class RankReport:
    rank: int
    parity: str  # "odd" | "even"
    p: int  # rank = 2p or 2p+1 per parity
    largest_power: int  # largest m with (d eta)^m != 0
    is_maximal: bool


def rank_of_eta(L: LieAlgebra, eta: KForm) -> RankReport:
    """Constant rank (class) of a 1-form: ``covector_class`` of its d eta."""
    if eta.degree != 1:
        raise PreconditionError("eta must be a nonzero 1-form")
    (E,) = L.values([[eta.coeff((i,), units(L.floats)[0]) for i in range(L.dim)]])
    return covector_class(d_of_covector(L, E), E)


def covector_class(B: MatOver, E: MatOver) -> RankReport:
    """Constant rank (class) of the 1-form eta, the one row of E, from B, the
    matrix of d eta: 2p+1 when eta ^ (d eta)^p != 0 and (d eta)^{p+1} = 0,
    else 2p with (d eta)^p the largest nonzero power.

    Two fraction-free ranks decide it (Pfaff-Darboux; Bryant et al., "Exterior
    Differential Systems", 1991, ch. II): (d eta)^p, p = rank(B)/2, is a
    nonzero multiple of the wedge of a basis of the rows of B, so
    eta ^ (d eta)^p != 0 exactly when eta stacked under B raises the rank.
    (The wedge-power expansion is the independent test oracle.)
    """
    if E.is_zero():
        raise PreconditionError("eta must be a nonzero 1-form")
    full, n = rank(B.N), len(E.N[0])
    if full % 2:
        raise InternalContradiction("antisymmetric form with odd rank")
    p, odd = full // 2, rank(stacked([B, E]).N) > full
    return RankReport(2 * p + odd, "odd" if odd else "even", p, p, odd and 2 * p + 1 == n)
