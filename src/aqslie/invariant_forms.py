"""Closed invariant 2-forms on reductive splits of compact semisimple
algebras: the moment element, the (1,1) property, and the vanishing of the
anti-invariant (2,0) part.

For g compact semisimple (Killing form negative definite) and k the
centralizer of a torus, g = k (+) m with m = k-perp under the Killing form.
Every closed ad(k)-invariant 2-form w on m is Kill([., .], Z_w) for a unique
Z_w in the center of k, and is J-invariant (type (1,1)) for every invariant
integrable complex structure J on m.  All systems are solved exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import (
    InternalContradiction,
    NoSolution,
    NotCompactSemisimple,
    PreconditionError,
)
from .exterior import KForm, bilinear_from_form, evaluate, form_scale, form_sub, pullback
from .lie_core import LieAlgebra, ad_matrix, bracket, derivations, killing_form
from .linalg import (
    Mat,
    Subspace,
    Vec,
    dot,
    identity,
    inverse,
    mat_eq,
    mat_mul,
    mat_vec,
    mat_vecs,
    nullspace,
    solve,
    transpose,
    vec_add,
    vec_eq,
    vec_is_zero,
    vec_sub,
)
from .scalars import ONE, ZERO, s_add, s_eq, s_is_zero, s_mul, s_neg, s_sub


def centralizer_of_torus(g: LieAlgebra, S: Subspace) -> Subspace:
    """k = {X : [X, s] = 0 for every s in a basis of the abelian S}."""
    for a in range(S.dim):
        for b in range(a + 1, S.dim):
            if not vec_is_zero(bracket(g, list(S.basis[a]), list(S.basis[b]))):
                raise PreconditionError("torus subspace is not abelian")
    rows: Mat = []
    for s in S.basis:
        ad_s = ad_matrix(g, list(s))
        rows.extend([[s_neg(x) for x in row] for row in ad_s])  # [X, s] = -ad_s X
    k = Subspace.from_vectors(g.dim, nullspace(rows, g.dim))
    for s in S.basis:
        if not k.contains(list(s)):
            raise InternalContradiction("centralizer does not contain the torus")
    return k


@dataclass(frozen=True)
class ReductiveSplit:
    g: LieAlgebra
    k: Subspace
    m: Subspace
    coords_k: tuple  # (dim k) x (dim g): g-coordinates -> k-coordinates
    coords_m: tuple  # (dim m) x (dim g)

    def m_cols(self) -> list[Vec]:
        return [list(b) for b in self.m.basis]

    def k_cols(self) -> list[Vec]:
        return [list(b) for b in self.k.basis]

    def to_m_coords(self, v: Vec) -> Vec:
        return mat_vec([list(r) for r in self.coords_m], v)

    def bracket_m(self, a: Vec, b: Vec) -> Vec:
        """m-part of [a, b], in m-coordinates."""
        return self.to_m_coords(bracket(self.g, a, b))


def reductive_split(g: LieAlgebra, k: Subspace) -> ReductiveSplit:
    """g = k (+) m with m = k-perp under the Killing form; both bracket
    inclusions [k,k] in k and [k,m] in m are verified exhaustively."""
    kf = killing_form(g)
    if kf.definiteness != "negative_definite":
        raise NotCompactSemisimple(
            f"Killing form is {kf.definiteness}, not negative definite"
        )
    B = [list(r) for r in kf.matrix]
    rows = mat_vecs(B, [list(b) for b in k.basis])
    m = Subspace.from_vectors(g.dim, nullspace(rows, g.dim))
    if k.dim + m.dim != g.dim:
        raise InternalContradiction("k and its Killing-perp do not span g")
    Tinv = inverse(transpose([list(b) for b in k.basis + m.basis]))
    coords_k = Tinv[: k.dim]
    coords_m = Tinv[k.dim :]
    for a in k.basis:
        for b in k.basis:
            if not k.contains(bracket(g, list(a), list(b))):
                raise PreconditionError("[k, k] is not contained in k")
        for b in m.basis:
            if not m.contains(bracket(g, list(a), list(b))):
                raise PreconditionError("[k, m] is not contained in m")
    return ReductiveSplit(
        g,
        k,
        m,
        tuple(tuple(r) for r in coords_k),
        tuple(tuple(r) for r in coords_m),
    )


def invariant_closed_2forms(R: ReductiveSplit) -> list[KForm]:
    """Basis of the space of closed ad(k)-invariant 2-forms on m.

    Invariance: w(ad_U X, Y) + w(X, ad_U Y) = 0 for all U in k.
    Closedness: w([X,Y]_m, Z) + w([Y,Z]_m, X) + w([Z,X]_m, Y) = 0.
    """
    dm = R.m.dim
    pairs = list(combinations(range(dm), 2))
    index = {p: t for t, p in enumerate(pairs)}

    def w_entry(row: Vec, a_coords: Vec, b: int, scale=ONE) -> None:
        # accumulate w(sum_t a_t X_t, X_b) into the row of unknowns
        for t, c in enumerate(a_coords):
            if s_is_zero(c) or t == b:
                continue
            key, sgn = ((t, b), ONE) if t < b else ((b, t), s_neg(ONE))
            row[index[key]] = s_add(row[index[key]], s_mul(scale, s_mul(c, sgn)))

    rows: Mat = []
    m_cols = R.m_cols()
    for U in R.k_cols():
        ad_images = [R.to_m_coords(bracket(R.g, U, X)) for X in m_cols]
        for a, b in pairs:
            row = [ZERO] * len(pairs)
            w_entry(row, ad_images[a], b)
            # w(X_a, ad_U X_b) = -w(ad_U X_b, X_a)
            w_entry(row, ad_images[b], a, s_neg(ONE))
            rows.append(row)
    for a, b, c in combinations(range(dm), 3):
        row = [ZERO] * len(pairs)
        w_entry(row, R.bracket_m(m_cols[a], m_cols[b]), c)
        w_entry(row, R.bracket_m(m_cols[b], m_cols[c]), a)
        w_entry(row, R.bracket_m(m_cols[c], m_cols[a]), b)
        rows.append(row)
    basis = nullspace(rows, len(pairs))
    return [
        KForm.make(2, dm, {pairs[t]: v[t] for t in range(len(pairs))}) for v in basis
    ]


def center_of_k(R: ReductiveSplit) -> list[Vec]:
    """Basis of z(k) in g-coordinates."""
    k_cols = R.k_cols()
    rows: Mat = []
    for U in k_cols:
        # sum_i c_i [k_i, U] = 0: one row per ambient coordinate
        rows.extend(transpose([bracket(R.g, col, U) for col in k_cols]))
    K = transpose(k_cols)
    return mat_vecs(K, nullspace(rows, len(k_cols)))


def moment_element(R: ReductiveSplit, w: KForm) -> Vec:
    """Z_w in z(k) with w(X, Y) = Kill([X, Y], Z_w) = Kill([Z_w, X], Y)."""
    if w.degree != 2 or w.dim != R.m.dim:
        raise PreconditionError("need a 2-form on m")
    B = [list(r) for r in killing_form(R.g).matrix]
    zk = center_of_k(R)
    m_cols = R.m_cols()
    rows: Mat = []
    rhs: Vec = []
    for a in range(len(m_cols)):
        for b in range(a + 1, len(m_cols)):
            br = bracket(R.g, m_cols[a], m_cols[b])
            kill_row = mat_vec(B, br)
            rows.append([dot(kill_row, z) for z in zk])
            rhs.append(w.coeff((a, b)))
    coeffs = solve(rows, rhs)
    if coeffs is None:
        raise NoSolution("form admits no moment element in z(k)")
    Z = mat_vec(transpose(zk), coeffs)
    # verify both stated equalities on all basis pairs
    for a in range(len(m_cols)):
        for b in range(len(m_cols)):
            if a == b:
                continue
            want = w.coeff((a, b)) if a < b else s_neg(w.coeff((b, a)))
            first = dot(mat_vec(B, bracket(R.g, m_cols[a], m_cols[b])), Z)
            second = dot(mat_vec(B, bracket(R.g, Z, m_cols[a])), m_cols[b])
            if not (s_eq(first, want) and s_eq(second, want)):
                raise InternalContradiction("moment element equalities fail")
    return Z


@dataclass(frozen=True)
class TypeReport:
    j_ok: bool
    j_failures: list  # names of failed J preconditions
    invariant: bool  # every supplied form satisfies w(JX, JY) = w(X, Y)
    anti_projection_zero: bool


def verify_invariant_complex_structure(R: ReductiveSplit, J: Mat) -> list[str]:
    """J^2 = -I, ad(k)-equivariance and the integrability condition, all on
    basis elements of m (J given in m-coordinates).  Returns failure names."""
    dm = R.m.dim
    failures = []
    minus_I = [[s_neg(x) for x in row] for row in identity(dm)]
    if not mat_eq(mat_mul(J, J), minus_I):
        failures.append("J_squared")
    m_cols = R.m_cols()
    # J X_a in g-coordinates: column a of J, mapped through the m basis
    M = transpose(m_cols)
    JX = mat_vecs(M, transpose(J))

    equivariant = True
    for U in R.k_cols():
        for a in range(dm):
            lhs = mat_vec(J, R.to_m_coords(bracket(R.g, m_cols[a], U)))
            rhs = R.to_m_coords(bracket(R.g, JX[a], U))
            if not vec_eq(lhs, rhs):
                equivariant = False
    if not equivariant:
        failures.append("equivariance")
    integrable = True
    for a in range(dm):
        for b in range(a + 1, dm):
            Xa, Xb = m_cols[a], m_cols[b]
            term = vec_sub(R.bracket_m(JX[a], JX[b]), R.bracket_m(Xa, Xb))
            term = vec_sub(term, mat_vec(J, R.bracket_m(Xa, JX[b])))
            term = vec_sub(term, mat_vec(J, R.bracket_m(JX[a], Xb)))
            if not vec_is_zero(term):
                integrable = False
    if not integrable:
        failures.append("integrability")
    return failures


def type_11_check(R: ReductiveSplit, forms: list[KForm], J: Mat) -> TypeReport:
    """Assert w(JX, JY) = w(X, Y) for each form, and that the anti-invariant
    projection of the span is zero; J is user-supplied and verified first."""
    failures = verify_invariant_complex_structure(R, J)
    if failures:
        return TypeReport(False, failures, False, False)
    dm = R.m.dim
    J_cols = transpose(J)
    invariant = True
    anti_zero = True
    for w in forms:
        for a in range(dm):
            for b in range(a + 1, dm):
                if not s_eq(evaluate(w, [J_cols[a], J_cols[b]]), w.coeff((a, b))):
                    invariant = False
        anti_part = form_scale(form_sub(w, pullback(w, J)), Fraction(1, 2))
        if not anti_part.is_zero():
            anti_zero = False
    return TypeReport(True, [], invariant, anti_zero)


def synthesize_j_dim2(R: ReductiveSplit) -> list[Mat]:
    """For dim m = 2: the two candidate complex structures +-J obtained by
    normalizing ad_U on m for a central U, filtered by the verifier."""
    if R.m.dim != 2:
        raise PreconditionError("exhaustive synthesis is provided for dim m = 2 only")
    from .scalars import s_div, s_sqrt

    for U in center_of_k(R):
        M = transpose([R.to_m_coords(bracket(R.g, U, X)) for X in R.m_cols()])
        d = s_sub(s_mul(M[0][0], M[1][1]), s_mul(M[0][1], M[1][0]))
        if s_is_zero(d):
            continue
        scale = s_sqrt(d)
        J = [[s_div(x, scale) for x in row] for row in M]
        out = []
        for cand in (J, [[s_neg(x) for x in row] for row in J]):
            if not verify_invariant_complex_structure(R, cand):
                out.append(cand)
        if out:
            return out
    return []


def extension_by_zero_derivation_check(R: ReductiveSplit, w: KForm, Z: Vec) -> bool:
    """Extend w by w(U, .) = 0 on k; the endomorphism phi with
    Kill(phi X, Y) = w_ext(X, Y) must be a derivation of g (it is ad_Z)."""
    B = [list(r) for r in killing_form(R.g).matrix]
    n = R.g.dim
    Cm = [list(r) for r in R.coords_m]
    Omega = mat_mul(transpose(Cm), mat_mul(bilinear_from_form(w), Cm))
    # phi^T B = Omega
    phi = transpose(mat_mul(Omega, inverse(B)))
    # Leibniz on all basis pairs
    basis, phi_cols = [R.g.basis_vector(a) for a in range(n)], transpose(phi)
    for a in range(n):
        for b in range(a + 1, n):
            ea, eb = basis[a], basis[b]
            lhs = mat_vec(phi, bracket(R.g, ea, eb))
            rhs = vec_add(bracket(R.g, phi_cols[a], eb), bracket(R.g, ea, phi_cols[b]))
            if not vec_eq(lhs, rhs):
                return False
    # membership in the derivation algebra computed independently
    der = derivations(R.g)
    flat = [phi[i][j] for i in range(n) for j in range(n)]
    if not der.contains(flat):
        return False
    # and phi coincides with ad_Z
    return mat_eq(phi, ad_matrix(R.g, Z))
