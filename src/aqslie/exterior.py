"""Chevalley-Eilenberg exterior calculus on a Lie algebra.

Alternating k-forms are stored on strictly increasing index tuples, so forms
are alternating by construction.  The convention for the differential is

    d w (X_0..X_k) = sum_{i<j} (-1)^{i+j} w([X_i,X_j], X_0..^i..^j..X_k),

so on 1-forms d eta (X, Y) = -eta([X, Y]), the sign fixed throughout the
package, and d(theta^m) = - sum_{i<j} c_ij^m theta^i ^ theta^j.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import DimensionMismatch, InternalContradiction, PreconditionError
from .lie_core import LieAlgebra
from .linalg import Mat, Vec, det, mat_mul, nullspace, rank, transpose
from .scalars import ONE, ZERO, coerce, s_add, s_is_zero, s_mul, s_neg


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

    def coeff(self, idx: tuple):
        key, sign = _sort_with_sign(tuple(idx))
        for k, v in self.coeffs:
            if k == key:
                return v if sign > 0 else s_neg(v)
        return ZERO

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


def zero_form(degree: int, dim: int) -> KForm:
    return KForm.make(degree, dim)


def one_scalar_form(dim: int, c=ONE) -> KForm:
    return KForm.make(0, dim, {(): c})


def theta(i: int, dim: int) -> KForm:
    """Dual basis 1-form of b_i."""
    return KForm.make(1, dim, {(i,): ONE})


def covector_form(row: Vec) -> KForm:
    return KForm.make(1, len(row), {(i,): c for i, c in enumerate(row)})


def form_add(a: KForm, b: KForm) -> KForm:
    _check_compatible(a, b, same_degree=True)
    terms = {k: v for k, v in a.coeffs}
    for k, v in b.coeffs:
        terms[k] = s_add(terms.get(k, ZERO), v)
    return KForm.make(a.degree, a.dim, terms)


def form_sub(a: KForm, b: KForm) -> KForm:
    return form_add(a, form_scale(b, s_neg(ONE)))


def form_scale(a: KForm, c) -> KForm:
    return KForm.make(a.degree, a.dim, {k: s_mul(c, v) for k, v in a.coeffs})


def form_eq(a: KForm, b: KForm) -> bool:
    return form_sub(a, b).is_zero()


def _check_compatible(a: KForm, b: KForm, same_degree: bool = False) -> None:
    if a.dim != b.dim:
        raise DimensionMismatch("forms live on different ambient dimensions")
    if same_degree and a.degree != b.degree:
        raise DimensionMismatch("forms have different degrees")


def _merge_sign(I: tuple, J: tuple) -> tuple[tuple, int] | None:
    """Concatenate two increasing tuples; None when they intersect."""
    if set(I) & set(J):
        return None
    merged = I + J
    return _sort_with_sign(merged)


def wedge(a: KForm, b: KForm) -> KForm:
    """Graded-commutative product; degree overflow gives the zero form."""
    _check_compatible(a, b)
    deg = a.degree + b.degree
    if deg > a.dim:
        return zero_form(deg, a.dim)
    terms: dict[tuple, object] = {}
    for I, ca in a.coeffs:
        for J, cb in b.coeffs:
            hit = _merge_sign(I, J)
            if hit is None:
                continue
            key, sign = hit
            c = s_mul(ca, cb)
            c = c if sign > 0 else s_neg(c)
            terms[key] = s_add(terms.get(key, ZERO), c)
    return KForm.make(deg, a.dim, terms)


def wedge_power(a: KForm, p: int) -> KForm:
    out = one_scalar_form(a.dim)
    for _ in range(p):
        out = wedge(out, a)
    return out


def evaluate(a: KForm, vectors: list[Vec]):
    """a(v_1, ..., v_k) via k x k minors."""
    if len(vectors) != a.degree:
        raise DimensionMismatch("wrong number of arguments")
    total = ZERO
    for I, c in a.coeffs:
        minor = [[vectors[col][row] for col in range(a.degree)] for row in I]
        total = s_add(total, s_mul(c, det(minor)))
    return total


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


def bilinear_from_form(a: KForm) -> Mat:
    if a.degree != 2:
        raise DimensionMismatch("not a 2-form")
    n = a.dim
    M = [[ZERO] * n for _ in range(n)]
    for (i, j), c in a.coeffs:
        M[i][j] = c
        M[j][i] = s_neg(c)
    return M


def pullback(a: KForm, A: Mat) -> KForm:
    """(A^* a)(v_1..v_k) = a(A v_1, .., A v_k) for a square matrix A."""
    n = a.dim
    cols = transpose(A)
    terms: dict[tuple, object] = {}
    for J in combinations(range(n), a.degree):
        val = evaluate(a, [cols[j] for j in J])
        if not s_is_zero(val):
            terms[J] = val
    return KForm.make(a.degree, n, terms)


# ---------------------------------------------------------------------------
# Chevalley-Eilenberg differential
# ---------------------------------------------------------------------------

def d_theta(L: LieAlgebra, m: int) -> KForm:
    """d theta^m = - sum_{i<j} c_ij^m theta^i ^ theta^j."""
    terms = {}
    for (i, j), entries in L.brackets:
        for k, v in entries:
            if k == m:
                terms[(i, j)] = s_neg(v)
    return KForm.make(2, L.dim, terms)


def ce_d(L: LieAlgebra, w: KForm) -> KForm:
    """Differential via the graded Leibniz rule on basis monomials."""
    if w.dim != L.dim:
        raise DimensionMismatch("form does not live on this algebra")
    dthetas = [d_theta(L, m) for m in range(L.dim)]
    out = zero_form(w.degree + 1, L.dim)
    for I, c in w.coeffs:
        for r, idx in enumerate(I):
            dth = dthetas[idx]
            if dth.is_zero():
                continue
            rest = KForm.make(
                w.degree - 1, L.dim, {tuple(x for t, x in enumerate(I) if t != r): ONE}
            )
            sign_c = c if r % 2 == 0 else s_neg(c)
            out = form_add(out, form_scale(wedge(rest, dth), sign_c))
    return out


def ce_d_matrix(L: LieAlgebra, k: int) -> Mat:
    """Matrix of d: Lambda^k -> Lambda^{k+1} in the monomial bases."""
    n = L.dim
    rows_idx = {J: r for r, J in enumerate(combinations(range(n), k + 1))}
    cols = list(combinations(range(n), k))
    M = [[ZERO] * len(cols) for _ in rows_idx] if rows_idx else []
    for c_i, I in enumerate(cols):
        img = ce_d(L, KForm.make(k, n, {I: ONE}))
        for J, v in img.coeffs:
            M[rows_idx[J]][c_i] = v
    return M


def ce_betti(L: LieAlgebra, k: int) -> int:
    """dim ker(d on Lambda^k) - dim im(d on Lambda^{k-1}), by exact ranks.

    These are invariant-cohomology dimensions of the algebra; they agree
    with de Rham Betti numbers of a compact quotient only in the nilpotent
    lattice case (Nomizu), so treat them as a proxy elsewhere.
    """
    if k < 0 or k > L.dim:
        raise PreconditionError("degree out of range")
    from math import comb

    dim_k = comb(L.dim, k)
    rank_k = rank(ce_d_matrix(L, k)) if k < L.dim else 0
    rank_prev = rank(ce_d_matrix(L, k - 1)) if k > 0 else 0
    return dim_k - rank_k - rank_prev


@dataclass(frozen=True)
class RankReport:
    rank: int
    parity: str  # "odd" | "even"
    p: int  # rank = 2p or 2p+1 per parity
    largest_power: int  # largest m with (d eta)^m != 0
    is_maximal: bool


def rank_of_eta(L: LieAlgebra, eta: KForm) -> RankReport:
    """Constant rank of a 1-form: 2p+1 when eta ^ (d eta)^p != 0 and
    (d eta)^{p+1} = 0, else 2p with (d eta)^p the largest nonzero power.

    Computed by fraction-free matrix ranks: for an antisymmetric bilinear
    form B, the largest nonvanishing wedge power is rank(B)/2, and
    eta ^ (d eta)^p != 0 exactly when B restricted to Ker eta still has
    rank 2p.  (The wedge-power expansion is the independent test oracle.)
    """
    if eta.degree != 1 or eta.is_zero():
        raise PreconditionError("eta must be a nonzero 1-form")
    deta = ce_d(L, eta)
    B = bilinear_from_form(deta)
    full = rank(B)
    if full % 2:
        raise InternalContradiction("antisymmetric form with odd rank")
    m = full // 2
    eta_row = [eta.coeff((i,)) for i in range(L.dim)]
    kernel = nullspace([eta_row], L.dim)  # rows: a basis K of Ker eta
    # B restricted to Ker eta: the Gram matrix K B K^T
    restricted = mat_mul(kernel, mat_mul(B, transpose(kernel)))
    if rank(restricted) == full:
        return RankReport(2 * m + 1, "odd", m, m, 2 * m + 1 == L.dim)
    return RankReport(2 * m, "even", m, m, False)
