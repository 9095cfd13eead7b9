"""Closed invariant 2-forms on reductive splits of compact semisimple
algebras: the moment element, the (1,1) property, and the vanishing of the
anti-invariant (2,0) part.

For g compact semisimple (Killing form B negative definite) and k the
centralizer of a torus, g = k (+) m with m = k-perp under the Killing form.
Every closed ad(k)-invariant 2-form w on m is Kill([., .], Z_w) for a unique
Z_w in the center of k, and is J-invariant (type (1,1)) for every invariant
integrable complex structure J on m.  All systems are solved exactly.

The split holds g once in the basis k (+) m, the columns of [K M]
(``lie_core.in_basis``); [K M]^-1 is the coordinate map, and its rows
from dim k on are C_m.  [k, k] in k and [k, m] in m are read off its table, and
N_U, the m-part of ad_U on m in m-coordinates, is the m-block of ad_U there.
The closed ad(k)-invariant 2-forms are the relative 2-cocycles Z^2(g, k):
by Cartan's formula L_U = i_U d + d i_U, a 2-form that vanishes on k and is
closed on g is ad(k)-invariant, and dw(U, X, Y) is the invariance equation,
so they are the kernel of the one differential (``exterior.cocycles``) on
the pairs of m.  Every other check is one matrix identity of m-blocks.
With W the matrix of w:

    J is ad(k)-equivariant      J N_U = N_U J, U in k
    J is integrable             N_{J X_a} J - N_{X_a} - J (N_{X_a} J + N_{J X_a}) = 0
    w is of type (1,1)          J^T W J = W
    Z is the moment element     M^T ad_Z^T B M = W

Column b of the integrability matrix is the m-part of [JX_a, JX_b] - [X_a, X_b]
- J [X_a, JX_b] - J [JX_a, X_b].  The anti-invariant part of w is
(W - J^T W J) / 2, so the (1,1) test decides it too.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .acm import certificate_failure
from .errors import (
    InternalContradiction,
    NoSolution,
    NotCompactSemisimple,
    PreconditionError,
)
from .exterior import KForm, bilinear_from_form, cocycles
from .lie_core import LieAlgebra, ad_matrix, bracket, in_basis, killing_form
from .linalg import (
    Mat,
    Subspace,
    Vec,
    _flat,
    identity,
    inverse,
    mat_add,
    mat_eq,
    mat_mul,
    mat_sub,
    mat_vec,
    mat_vecs,
    nullspace,
    rank,
    solve,
    transpose,
    vec_is_zero,
    vec_sub,
    zeros,
)
from .scalars import s_is_zero, s_mul, s_neg, s_sub


def centralizer_of_torus(g: LieAlgebra, S: Subspace) -> Subspace:
    """k = {X : [s, X] = 0 for every s in a basis of the abelian S}, the
    common kernel of the ad_s stacked."""
    ads = [ad_matrix(g, list(s)) for s in S.basis]
    if not all(vec_is_zero(_flat(mat_vecs(ad, [list(t) for t in S.basis]))) for ad in ads):
        raise PreconditionError("torus subspace is not abelian")
    k = Subspace.from_vectors(g.dim, nullspace([row for ad in ads for row in ad], g.dim))
    if rank([list(b) for b in k.basis + S.basis]) != k.dim:  # S stacked under k adds none
        raise InternalContradiction("centralizer does not contain the torus")
    return k


@dataclass(frozen=True)
class ReductiveSplit:
    g: LieAlgebra
    k: Subspace
    m: Subspace
    coords: tuple  # [K M]^-1: g-coordinates -> split coordinates; C_m is rows dim k on
    split: LieAlgebra  # g in the basis k (+) m, the columns of [K M]
    killing: tuple  # the Killing matrix B of g
    center: tuple  # a basis of z(k) in g-coordinates

    def m_cols(self) -> list[Vec]:
        return [list(b) for b in self.m.basis]

    def k_cols(self) -> list[Vec]:
        return [list(b) for b in self.k.basis]

    def ad_m(self, U: Vec) -> Mat:
        """N_U = C_m ad_U M, the m-block of ad_U in the split basis; its column b
        is [U, X_b]_m in m-coordinates."""
        nk = self.k.dim
        ad = ad_matrix(self.split, mat_vec(self.coords, U))
        return [row[nk:] for row in ad[nk:]]


def reductive_split(g: LieAlgebra, k: Subspace) -> ReductiveSplit:
    """g = k (+) m with m = k-perp under the Killing form B, with B and z(k)
    kept on the split; both bracket
    inclusions [k,k] in k and [k,m] in m are read off the table of g in the
    basis k (+) m.  A k that is not a subalgebra is a PreconditionError;
    [k,m] in m is then implied, so its failure is a certificate failure
    (ToleranceExceeded for float input)."""
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
    T = transpose([list(b) for b in k.basis + m.basis])
    Tinv = inverse(T)
    split, nk = in_basis(g, T, Tinv), k.dim
    # z(k): ad_U sum_i c_i k_i = 0 for U in k, one row per ambient coordinate
    K = transpose([list(b) for b in k.basis])
    rows = [row for U in k.basis for row in mat_mul(ad_matrix(g, list(U)), K)]
    center = mat_vecs(K, nullspace(rows, k.dim))
    R = ReductiveSplit(g, k, m, tuple(map(tuple, Tinv)), split, kf.matrix,
                       tuple(map(tuple, center)))
    # stored c_ij^l of the split: i < j < nk lands in k, i < nk <= j in m
    if any(l >= nk for (_, j), entries in split.brackets if j < nk for l, _ in entries):
        raise PreconditionError("[k, k] is not contained in k")
    # [k, m] in m follows from [k, k] in k, as m = k-perp and Kill is
    # ad-invariant: a certificate of the split that only rounding can fail
    residual = [v for (i, j), entries in split.brackets if i < nk <= j
                for l, v in entries if l < nk]
    if residual:
        raise certificate_failure("[k, m] is not contained in m", residual)
    return R


def invariant_closed_2forms(R: ReductiveSplit) -> list[KForm]:
    """Basis of the space of closed ad(k)-invariant 2-forms on m: the relative
    2-cocycles Z^2(g, k), the kernel of d on the pairs of m in the split basis.
    Extended by zero on k, w has dw(U, X, Y) = -w([U, X], Y) - w(X, [U, Y])
    for U in k, and dw(U, V, X) = -w([U, V], X) = 0 as [k, k] is in k."""
    nk, nm = R.k.dim, R.m.dim
    pairs = list(combinations(range(nk, nk + nm), 2))
    return [KForm.make(2, nm, {(a - nk, b - nk): c for (a, b), c in zip(pairs, v)})
            for v in cocycles(R.split, pairs)]


def moment_element(R: ReductiveSplit, w: KForm) -> Vec:
    """Z_w in z(k) with w(X, Y) = Kill([X, Y], Z_w) = Kill([Z_w, X], Y): the
    first equality is solved on the pairs a < b and certified by the residual
    of the solve, the second by the Gram product M^T ad_Z^T B M = W."""
    if w.degree != 2 or w.dim != R.m.dim:
        raise PreconditionError("need a 2-form on m")
    B, zk = [list(r) for r in R.killing], [list(z) for z in R.center]
    m_cols, W = R.m_cols(), bilinear_from_form(w, R.g.floats)
    pairs = list(combinations(range(len(m_cols)), 2))
    # row (a, b): Kill([X_a, X_b], z) for z in z(k)
    brackets = [bracket(R.g, m_cols[a], m_cols[b]) for a, b in pairs]
    rows = mat_mul(brackets, mat_mul(B, transpose(zk)))
    rhs = [W[a][b] for a, b in pairs]
    coeffs = solve(rows, rhs)
    if coeffs is None:
        raise NoSolution("form admits no moment element in z(k)")
    Z = mat_vec(transpose(zk), coeffs) if zk else zeros(1, R.g.dim, R.g.floats)[0]
    ad_Z_M = mat_vecs(ad_matrix(R.g, Z), m_cols)  # rows of M^T ad_Z^T
    gram = mat_mul(ad_Z_M, mat_mul(B, transpose(m_cols)))
    residual = vec_sub(mat_vec(rows, coeffs), rhs) + _flat(mat_sub(gram, W))
    if not vec_is_zero(residual):
        raise certificate_failure("moment element equalities fail", residual)
    return Z


@dataclass(frozen=True)
class TypeReport:
    j_ok: bool
    j_failures: list  # names of failed J preconditions
    invariant: bool  # every supplied form satisfies w(JX, JY) = w(X, Y)
    anti_projection_zero: bool


def verify_invariant_complex_structure(R: ReductiveSplit, J: Mat) -> list[str]:
    """J^2 = -I, ad(k)-equivariance and the integrability condition, each one
    matrix identity in m-coordinates (see the module docstring).  Returns
    failure names."""
    failures = []
    minus_I = [[-x for x in row] for row in identity(R.m.dim, R.g.floats)]
    if not mat_eq(mat_mul(J, J), minus_I):
        failures.append("J_squared")
    if not all(mat_eq(mat_mul(J, N), mat_mul(N, J)) for N in map(R.ad_m, R.k_cols())):
        failures.append("equivariance")
    m_cols = R.m_cols()
    JX = mat_vecs(transpose(m_cols), transpose(J))  # J X_a in g-coordinates
    for X, JX_a in zip(m_cols, JX):
        Q, P = R.ad_m(X), R.ad_m(JX_a)
        torsion = mat_sub(mat_sub(mat_mul(P, J), Q), mat_mul(J, mat_add(mat_mul(Q, J), P)))
        if not vec_is_zero(_flat(torsion)):
            failures.append("integrability")
            break
    return failures


def type_11_check(R: ReductiveSplit, forms: list[KForm], J: Mat) -> TypeReport:
    """J^T W J = W for each form: w(JX, JY) = w(X, Y), and with it the
    anti-invariant part (W - J^T W J) / 2 vanishes; J is user-supplied and
    verified first."""
    failures = verify_invariant_complex_structure(R, J)
    if failures:
        return TypeReport(False, failures, False, False)
    J_t = transpose(J)
    Ws = [bilinear_from_form(w, R.g.floats) for w in forms]
    invariant = all(mat_eq(mat_mul(J_t, mat_mul(W, J)), W) for W in Ws)
    return TypeReport(True, [], invariant, invariant)


def synthesize_j_dim2(R: ReductiveSplit) -> list[Mat]:
    """For dim m = 2: the two candidate complex structures +-J obtained by
    normalizing ad_U on m for a central U, filtered by the verifier."""
    if R.m.dim != 2:
        raise PreconditionError("exhaustive synthesis is provided for dim m = 2 only")
    from .scalars import s_div, s_sqrt

    for U in map(list, R.center):
        M = R.ad_m(U)
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
    B = [list(r) for r in R.killing]
    Cm = [list(r) for r in R.coords[R.k.dim:]]
    Omega = mat_mul(transpose(Cm), mat_mul(bilinear_from_form(w, R.g.floats), Cm))
    # phi^T B = Omega
    phi = transpose(mat_mul(Omega, inverse(B)))
    # Leibniz, phi ad_i - ad_i phi = ad_{phi b_i} = sum_j phi_ji ad_j, and phi = ad_Z
    ads, (P,) = R.g.ad_values(phi)  # the numerators of both sides: one denominator
    by_phi = mat_vecs(transpose([_flat(A.N) for A in ads]), P.T.N)
    leibniz = [_flat(mat_sub(mat_mul(P.N, A.N), mat_mul(A.N, P.N))) for A in ads]
    return mat_eq(leibniz, by_phi) and mat_eq(phi, ad_matrix(R.g, Z))
