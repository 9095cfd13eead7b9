"""Exact linear algebra kernels: elimination, spectra, inertia."""

import math
import operator
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aqslie.linalg as linalg
from aqslie.constructors import abelian
from aqslie.errors import IrrationalSpectrum
from aqslie.linalg import (
    MatOver,
    Subspace,
    _flat,
    bilinear,
    char_poly,
    det,
    dot,
    eig_sym_exact,
    eigenspaces,
    eigh_float,
    identity,
    inertia_symmetric,
    inverse,
    is_positive_definite,
    mat_add,
    mat_eq,
    mat_mul,
    mat_scale,
    mat_solve,
    mat_sub,
    mat_vec,
    mat_vecs,
    max_abs,
    nullspace,
    random_unimodular,
    rank,
    rref,
    solve,
    stacked,
    transpose,
    vec_eq,
    vec_is_zero,
)
from aqslie.scalars import ONE, ZERO, Ext, s_add, s_eq, s_inv, s_is_zero, s_mul, s_sub
from oracles import eig_sym_char_poly, rational_roots

small_mats = st.integers(-4, 4)


def _mat(rows):
    return [[F(x) for x in row] for row in rows]


def test_rank_and_nullspace_agree_with_dimension_formula():
    M = _mat([[2, 1, 0], [0, 1, 1], [2, 2, 1]])
    assert rank(M) == 2
    ns = nullspace(M)
    assert len(ns) == 1
    assert vec_is_zero(mat_vec(M, ns[0]))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(small_mats, min_size=4, max_size=4), min_size=3, max_size=5))
def test_rank_nullity(rows):
    M = _mat(rows)
    assert rank(M) + len(nullspace(M)) == 4
    for v in nullspace(M):
        assert vec_is_zero(mat_vec(M, v))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(small_mats, min_size=3, max_size=3), min_size=3, max_size=3))
def test_bareiss_matches_field_elimination(rows):
    M = _mat(rows)
    assert rank(M) == len(rref(M)[1])


def test_solve_consistency():
    M = _mat([[1, 2], [3, 4]])
    x = solve(M, [F(5), F(6)])
    assert vec_eq(mat_vec(M, x), [F(5), F(6)])
    # inconsistent system
    M2 = _mat([[1, 1], [1, 1]])
    assert solve(M2, [F(0), F(1)]) is None


def test_det_inverse():
    M = _mat([[1, 2], [3, 4]])
    assert det(M) == F(-2)
    assert mat_eq(mat_mul(inverse(M), M), identity(2))
    with pytest.raises(ValueError):
        inverse(_mat([[1, 2], [2, 4]]))


def test_char_poly_and_roots():
    M = _mat([[5, 2], [2, 2]])  # eigenvalues 1, 6
    coeffs = char_poly(M)
    assert coeffs == [F(1), F(-7), F(6)]
    roots, residual = rational_roots(coeffs)
    assert residual == 0 and roots == {F(1): 1, F(6): 1}
    # non-splitting polynomial x^2 - 2
    roots2, residual2 = rational_roots([F(1), F(0), F(-2)])
    assert roots2 == {} and residual2 == 2
    # rational roots with denominators: (x - 1/2)(x + 3/2)
    roots3, residual3 = rational_roots([F(1), F(1), F(-3, 4)])
    assert residual3 == 0 and roots3 == {F(1, 2): 1, F(-3, 2): 1}


def test_eig_sym_exact_multiplicity():
    M = _mat([[2, 0, 0], [0, 2, 0], [0, 0, 3]])
    eig = eig_sym_exact(M)
    assert [(e, m) for e, m, _ in eig] == [(F(2), 2), (F(3), 1)]
    for ev, _, basis in eig:
        for v in basis:
            assert vec_eq(mat_vec(M, v), [ev * x for x in v])
    with pytest.raises(IrrationalSpectrum):
        eig_sym_exact(_mat([[0, 1], [1, 1]]))  # golden-ratio spectrum


def _diag_blocks(*blocks):
    """The block-diagonal matrix of the square blocks, Fraction zeros around them."""
    n, out, at = sum(map(len, blocks)), [], 0
    for B in blocks:
        out += [[F(0)] * at + list(row) + [F(0)] * (n - at - len(B)) for row in B]
        at += len(B)
    return out


@st.composite
def planted_spectra(draw):
    """(M, G), M = P D P^-1 and G = P^-T P^-1, so G M = P^-T D P^-1 is symmetric:
    D diagonal with few distinct rational values, repeats and a zero often.  Half
    the time M is block diagonal with disjoint spectra on the blocks, so that e_1
    sees the first block only and the second's eigenvalues come from a later e_k."""
    def planted(n, values):
        D = _diag_blocks(*([[draw(st.sampled_from(values))]] for _ in range(n)))
        Q = random_unimodular(n, random.Random(draw(st.integers(0, 2**16))))
        scales = draw(st.lists(fractions.filter(bool), min_size=n, max_size=n))
        P = [[x * c for x, c in zip(row, scales)] for row in Q]
        Pi = inverse(P)
        return mat_mul(mat_mul(P, D), Pi), mat_mul(transpose(Pi), Pi)

    values = draw(st.lists(fractions, min_size=1, max_size=3)) + [F(0)]
    if draw(st.booleans()):
        return planted(draw(st.integers(1, 6)), values)
    (M1, G1), (M2, G2) = (planted(draw(st.integers(1, 3)), values),
                          planted(draw(st.integers(1, 3)), [v + 13 for v in values]))
    return _diag_blocks(M1, M2), _diag_blocks(G1, G2)


TOWER_ENTRIES = [ZERO] * 5 + [ONE, Ext.of_sqrt(2), -Ext.of_sqrt(3), F(1, 2) * Ext.of_sqrt(5),
                               ONE + Ext.of_sqrt(6)]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(planted_spectra(), st.lists(st.sampled_from(TOWER_ENTRIES), min_size=15, max_size=15))
def test_krylov_spectra_match_the_characteristic_polynomial(case, uppers):
    # eig_sym_exact reads its eigenvalues off Krylov minimal polynomials; the
    # oracle off the rational roots of the whole characteristic polynomial:
    # the same eigenvalues, multiplicities and bases, every repr, for the
    # Fraction matrix, its all-int numerators, its conjugate T M T^-1 by a
    # unit upper triangular tower T (through the rational matrix of the same
    # map) and through eigenspaces
    M, G = case
    assert mat_eq(mat_mul(G, M), transpose(mat_mul(G, M)))
    den = math.lcm(*(x.denominator for x in _flat(M)))
    ints = [[int(x * den) for x in row] for row in M]
    at = iter(uppers)
    T = [[ONE if i == j else next(at) if i < j else ZERO for j in range(len(M))]
         for i in range(len(M))]
    for A in (M, ints, mat_mul(T, mat_mul(M, inverse(T)))):
        want = repr(eig_sym_char_poly(A))
        assert repr(eig_sym_exact(A)) == want
    assert repr(eigenspaces(M, G)) == repr(eig_sym_char_poly(M))
    assert sum(mult for _, mult, _ in eig_sym_exact(M)) == len(M)


def _planted(values, Q) -> list:
    """Q diag(values) Q^-1."""
    return mat_mul(mat_mul(Q, _diag_blocks(*([[F(v)]] for v in values))), inverse(Q))


def _assert_planted_spectrum(M, values, Q):
    """eig_sym_exact(M) has exactly the values, each with its multiplicity and
    the span of Q's columns at it as eigenspace."""
    eig = eig_sym_exact(M)
    assert [(ev, m) for ev, m, _ in eig] == [(v, values.count(v)) for v in sorted(set(values))]
    for ev, _, basis in eig:
        want = [col for col, v in zip(transpose(Q), values) if v == ev]
        assert Subspace.from_vectors(len(M), basis).equals(Subspace.from_vectors(len(M), want))


def test_roots_are_read_on_the_operators_own_scale():
    # Q D Q^-1 over det Q = -71418: its primitive integer multiple has the
    # eigenvalues D den / content, whose product is too large to factor by
    # trial division; the sign-variation search factors nothing
    rng = random.Random(0)  # the first nonsingular Q it draws, then D
    while det(Q := [[F(rng.randint(-3, 3)) for _ in range(9)] for _ in range(9)]) == 0:
        pass
    values = [F(rng.choice([-2, -1, 0, 1, 3])) for _ in range(9)]
    assert det(Q) == -71418
    _assert_planted_spectrum(_planted(values, Q), values, Q)
    # a common factor of the entries, or a large common denominator: P's
    # eigenvalues are 1, 2, 3, 5, named on M's own scale
    P = random_unimodular(4, random.Random(1))
    for c in (F(10**15), F(1, 10**15)):
        D = _diag_blocks(*([[c * v]] for v in (1, 2, 3, 5)))
        assert [ev for ev, _, _ in eig_sym_exact(mat_mul(mat_mul(P, D), inverse(P)))] == [
            c * v for v in (1, 2, 3, 5)]


S2 = Ext.of_sqrt(2)


@pytest.mark.parametrize("rows, verdict", [
    ([[0, 1], [1, 1]], "residual degree 2"),  # golden ratio
    ([[0, 1, 0], [2, 0, 0], [0, 0, 3]], "residual degree 2"),  # x^2 - 2 beside 3
    ([[1, 1], [0, 1]], "span 1 of 2"),  # a Jordan block: e_1 is an eigenvector
    ([[1, 0], [1, 1]], "repeats"),  # its transpose: (x - 1)^2 is e_1's minimal polynomial
    ([[0, S2], [S2, 0]], "residual degree 2"),  # +-sqrt(2), roots of x^2 - 2 on rho's e_1
    ([[0, S2], [S2, 1]], [F(-1), F(2)]),  # (x + 1)(x - 2): a tower matrix, rational spectrum
    ([[0, -10**40], [1, 0]], "residual degree 2"),  # x^2 + 10^40: non-real roots
])
def test_krylov_verdicts_are_irrational_spectra(rows, verdict):
    # the oracle raises the same error type, from the characteristic polynomial,
    # except that its trial division gives up on the end coefficient 10^40
    for M in ([[x if isinstance(x, Ext) else F(x) for x in row] for row in rows], rows):
        if isinstance(verdict, list):
            assert [ev for ev, _, _ in eig_sym_exact(M)] == verdict
            assert repr(eig_sym_exact(M)) == repr(eig_sym_char_poly(M))
            continue
        with pytest.raises(IrrationalSpectrum, match=verdict):
            eig_sym_exact(M)
        with pytest.raises(ArithmeticError if -10**40 in rows[0] else IrrationalSpectrum):
            eig_sym_char_poly(M)


def test_eigenvalues_near_a_million_are_found_without_factoring():
    # the end coefficients of the minimal polynomials run to 10^48 and more: the
    # divisor search this route replaced gave up on them with ArithmeticError
    values = [F(10**6 + k) for k in range(-4, 5)]
    Q = random_unimodular(9, random.Random(5))
    _assert_planted_spectrum(_planted(values, Q), values, Q)


# (m 10^e + k) / d: below 10^30 in absolute value, often near each other
huge_fractions = st.builds(lambda m, e, k, d: F(m * 10**e + k, d), st.integers(-999, 999),
                           st.integers(0, 27), st.integers(-3, 3), st.integers(1, 10**3))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.lists(huge_fractions, min_size=2, max_size=3), st.integers(3, 7),
       st.integers(0, 2**16), st.data())
def test_planted_spectra_up_to_1e30_are_read_exactly(pool, n, seed, data):
    # repeats and a zero often; eigenvalues read off minimal polynomials whose
    # coefficients run to hundreds of digits, compared with the planted D
    values = data.draw(st.lists(st.sampled_from(pool + [F(0)]), min_size=n, max_size=n))
    Q = random_unimodular(n, random.Random(seed))
    _assert_planted_spectrum(_planted(values, Q), values, Q)


def test_inertia():
    assert inertia_symmetric(_mat([[2, 0], [0, -3]])) == (1, 1, 0)
    assert inertia_symmetric(_mat([[0, 0], [0, 0]])) == (0, 0, 2)
    # zero diagonal but nonzero form: hyperbolic plane has signature (1,1)
    assert inertia_symmetric(_mat([[0, 1], [1, 0]])) == (1, 1, 0)
    assert inertia_symmetric(_mat([[1, 2], [2, 1]])) == (1, 1, 0)


def test_eigh_float_clusters():
    evals, V = eigh_float([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 5.0]])
    assert abs(evals[0] - 1.0) < 1e-9
    assert abs(evals[1] - 3.0) < 1e-9
    assert abs(evals[2] - 5.0) < 1e-9
    # eigenvector check for the top eigenvalue
    v = [V[r][2] for r in range(3)]
    assert abs(v[2]) > 0.99


def test_random_unimodular_det():
    rng = random.Random(3)
    for n in (2, 5, 9):
        Q = random_unimodular(n, rng)
        assert det(Q) in (F(1), F(-1))


def test_subspace_membership_and_equality():
    S = Subspace.from_vectors(3, [[F(1), F(0), F(1)], [F(0), F(1), F(0)]])
    assert S.dim == 2
    assert S.contains([F(2), F(3), F(2)])
    assert not S.contains([F(1), F(0), F(0)])
    T = Subspace.from_vectors(3, [[F(1), F(1), F(1)], [F(1), F(-1), F(1)]])
    assert S.equals(T)
    U = Subspace.from_vectors(3, [[F(1), F(0), F(1)], [F(0), F(0), F(1)]])
    assert not S.equals(U) and not U.equals(S)
    assert Subspace(3, ()).equals(Subspace(3, ())) and not S.equals(Subspace(3, ()))


def test_subspace_equality_is_one_rank(monkeypatch):
    # the other basis stacked under this one: one rank, whatever the dimension
    ranks, real = [], linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda M: ranks.append(len(M)) or real(M))
    S = Subspace.from_vectors(4, [[F(int(i == j)) for j in range(4)] for i in range(3)])
    T = Subspace.from_vectors(4, [[F(1), F(2), F(3), F(0)], [F(0), F(1), F(1), F(0)],
                                  [F(1), F(0), F(0), F(0)]])
    assert S.equals(T)
    assert ranks == [6]


# ---------------------------------------------------------------------------
# differential tests: the kernels against a plain Fraction reference
# ---------------------------------------------------------------------------

fractions = st.builds(F, st.integers(-6, 6), st.integers(1, 5))


@st.composite
def rational_matrices(draw, square=False):
    """Wide, tall or square rational matrices with non-unit denominators;
    some rows are zero and some combine earlier rows (rank deficiency)."""
    m = draw(st.integers(1, 6))
    n = m if square else draw(st.integers(1, 6))
    M = [draw(st.lists(fractions, min_size=n, max_size=n)) for _ in range(m)]
    for i in range(1, m):
        kind = draw(st.sampled_from(("keep", "keep", "zero", "combine")))
        if kind == "zero":
            M[i] = [F(0)] * n
        elif kind == "combine":
            a, b, j = draw(fractions), draw(fractions), draw(st.integers(0, i - 1))
            M[i] = [a * x + b * y for x, y in zip(M[j], M[i - 1])]
    return M


def ref_mat_mul(A, B):
    return [[sum((a * b for a, b in zip(row, col)), F(0)) for col in zip(*B)] for row in A]


def ref_rref(M):
    A = [row[:] for row in M]
    pivots, r = [], 0
    for c in range(len(A[0])):
        p = next((i for i in range(r, len(A)) if A[i][c] != 0), None)
        if p is None:
            continue
        A[r], A[p] = A[p], A[r]
        pivot = A[r][c]
        A[r] = [x / pivot for x in A[r]]
        for i in range(len(A)):
            if i != r and A[i][c] != 0:
                f = A[i][c]
                A[i] = [x - f * y for x, y in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
        if r == len(A):
            break
    return A, pivots


def ref_nullspace(M):
    R, pivots = ref_rref(M)
    n = len(M[0])
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        v = [F(0)] * n
        v[free] = F(1)
        for r, c in enumerate(pivots):
            v[c] = -R[r][free]
        basis.append(v)
    return basis


def ref_solve(M, b):
    n = len(M[0])
    R, pivots = ref_rref([row + [x] for row, x in zip(M, b)])
    if n in pivots:
        return None
    x = [F(0)] * n
    for r, c in enumerate(pivots):
        x[c] = R[r][n]
    return x


def ref_inverse(M):
    n = len(M)
    R, pivots = ref_rref([row + [F(int(i == j)) for j in range(n)] for i, row in enumerate(M)])
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in R]


def _all_fractions(obj):
    if isinstance(obj, list):
        return all(_all_fractions(x) for x in obj)
    return type(obj) is F


def _close(a, b):
    if isinstance(a, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    return abs(float(a) - float(b)) <= 1e-6 * (1 + abs(float(b)))


def _same(a, b):
    """Exact value equality of nested lists of scalars of any kind."""
    if isinstance(a, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return s_eq(a, b)


def _map(fn, obj):
    return [_map(fn, x) for x in obj] if isinstance(obj, list) else fn(obj)


def _intify(x):
    return int(x) if x.denominator == 1 else x


SQRT2 = Ext.of_sqrt(2)


@settings(max_examples=60, deadline=None)
@given(rational_matrices(), st.data())
def test_products_match_fraction_reference(A, data):
    k = len(A[0])
    vectors = st.lists(fractions, min_size=k, max_size=k)
    B = data.draw(rational_matrices().map(lambda M: [M[i % len(M)] for i in range(k)]))
    u, v = data.draw(vectors), data.draw(vectors)
    AB = ref_mat_mul(A, B)
    Av = [row[0] for row in ref_mat_mul(A, [[x] for x in v])]
    uv = ref_mat_mul([u], [[x] for x in v])[0][0]
    assert mat_mul(A, B) == AB and _all_fractions(mat_mul(A, B))
    assert mat_vec(A, v) == Av and _all_fractions(mat_vec(A, v))
    assert dot(u, v) == uv and type(dot(u, v)) is F
    # fallbacks: square-root tower, plain ints mixed in, floats
    rA = _map(lambda x: s_mul(SQRT2, x), A)
    assert _same(mat_mul(rA, B), _map(lambda x: s_mul(SQRT2, x), AB))
    assert _same(mat_vec(rA, v), _map(lambda x: s_mul(SQRT2, x), Av))
    assert s_eq(dot(rA[0], v), s_mul(SQRT2, dot(A[0], v)))
    assert mat_mul(_map(_intify, A), _map(_intify, B)) == AB
    assert mat_vec(A, _map(_intify, v)) == Av
    assert dot(_map(_intify, u), v) == uv
    assert _close(mat_mul(_map(float, A), _map(float, B)), AB)
    assert _close(mat_vec(_map(float, A), _map(float, v)), Av)
    assert _close(dot(_map(float, u), v), uv)


@settings(max_examples=80, deadline=None)
@given(rational_matrices(), st.data())
def test_eliminations_match_fraction_reference(M, data):
    b = data.draw(st.lists(fractions, min_size=len(M), max_size=len(M)))
    R, pivots = ref_rref(M)
    got = rref(M)
    assert got == (R, pivots) and _all_fractions(got[0])
    assert nullspace(M) == ref_nullspace(M) and _all_fractions(nullspace(M))
    assert solve(M, b) == ref_solve(M, b)
    assert rank(M) == len(pivots)
    # fallbacks reach the same reduced form
    assert _same(rref(_map(lambda x: s_mul(SQRT2, x), M))[0], R)
    assert rref(_map(_intify, M)) == (R, pivots)
    assert _same(nullspace(_map(lambda x: s_mul(SQRT2, x), M)), ref_nullspace(M))
    assert nullspace(_map(_intify, M)) == ref_nullspace(M)
    scaled = solve(_map(lambda x: s_mul(SQRT2, x), M), [s_mul(SQRT2, x) for x in b])
    expected = ref_solve(M, b)
    assert (scaled is None) == (expected is None)
    if expected is not None:
        assert _same(scaled, expected)
    float_R, float_pivots = rref(_map(float, M))
    assert float_pivots == pivots and _close(float_R, R)


@settings(max_examples=60, deadline=None)
@given(rational_matrices(square=True))
def test_inverse_and_det_match_fraction_reference(M):
    expected = ref_inverse(M)
    if expected is None:
        with pytest.raises(ValueError):
            inverse(M)
        assert det(M) == 0
        return
    assert inverse(M) == expected and _all_fractions(inverse(M))
    assert det(M) != 0 and det(M) == det(_map(_intify, M))
    inv_sqrt2 = s_inv(SQRT2)
    assert _same(
        inverse(_map(lambda x: s_mul(SQRT2, x), M)),
        _map(lambda x: s_mul(inv_sqrt2, x), expected),
    )
    assert inverse(_map(_intify, M)) == expected
    assert _close(inverse(_map(float, M)), expected)


@settings(max_examples=30, deadline=None)
@given(rational_matrices())
def test_rref_and_inverse_agree_with_sympy(M):
    sympy = pytest.importorskip("sympy")

    def to_sympy(A):
        return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                             for row in A])

    R, pivots = rref(M)
    sR, spivots = to_sympy(M).rref()
    assert list(spivots) == pivots
    assert to_sympy(R) == sR
    if len(M) == len(M[0]) and len(pivots) == len(M):
        assert to_sympy(inverse(M)) == to_sympy(M).inv()


@settings(max_examples=30, deadline=None)
@given(rational_matrices(square=True))
def test_rank_det_char_poly_agree_with_sympy(M):
    sympy = pytest.importorskip("sympy")
    sM = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in M])
    assert rank(M) == sM.rank()
    assert det(M) == sM.det()
    assert char_poly(M) == sM.charpoly(sympy.Symbol("x")).all_coeffs()


def test_rational_roots_squarefree_candidates():
    # (x-1)^8 (x-2)^8 ... (x-5)^8 has constant term (5!)^8; the squarefree
    # part keeps the divisor search small
    p = [F(1)]
    for r in (1, 2, 3, 4, 5):
        for _ in range(8):
            p = [a - r * b for a, b in zip(p + [F(0)], [F(0)] + p)]
    roots, residual = rational_roots(p)
    assert residual == 0 and roots == {F(r): 8 for r in (1, 2, 3, 4, 5)}
    # multiplicities survive alongside an irreducible factor and root 0
    q = [F(1), F(0), F(-2)]  # x^2 - 2
    for r in (F(1, 2), F(1, 2), F(-3), F(0)):
        q = [a - r * b for a, b in zip(q + [F(0)], [F(0)] + q)]
    roots, residual = rational_roots(q)
    assert residual == 2 and roots == {F(0): 1, F(1, 2): 2, F(-3): 1}


def test_tower_inverse_and_mat_mul_agree_with_sympy():
    # square-root-tower entries a + b sqrt(2) + c sqrt(3) take the per-scalar
    # path of mat_mul and inverse; sympy is the independent oracle
    sympy = pytest.importorskip("sympy")
    rng = random.Random(11)
    sqrt2, sqrt3 = Ext.of_sqrt(2), Ext.of_sqrt(3)

    def entry():
        x = F(rng.randrange(-4, 5), rng.randrange(1, 3))
        for root in (sqrt2, sqrt3):
            if rng.random() < 0.5:
                x = s_add(x, s_mul(F(rng.randrange(-3, 4)), root))
        return x

    def to_sympy(A):
        def conv(x):
            terms = x.terms.items() if isinstance(x, Ext) else [(1, x)]
            return sum(sympy.Rational(c.numerator, c.denominator) * sympy.sqrt(r)
                       for r, c in terms)
        return sympy.Matrix([[conv(x) for x in row] for row in A])

    inverted = 0
    for size in (2, 3, 3, 4):
        A = [[entry() for _ in range(size)] for _ in range(size)]
        B = [[entry() for _ in range(size)] for _ in range(size)]
        sA = to_sympy(A)
        assert (to_sympy(mat_mul(A, B)) - sA * to_sympy(B)).expand().is_zero_matrix
        if sympy.radsimp(sA.det()) == 0:
            continue
        diff = to_sympy(inverse(A)) - sA.inv()
        assert diff.applyfunc(lambda e: sympy.radsimp(e).expand()).is_zero_matrix
        inverted += 1
    assert inverted >= 3


@pytest.mark.parametrize("primes", [(2,), (3, 5), (2, 3, 7)])
def test_restriction_of_scalars_is_multiplicative_by_sympy(primes):
    # rho(A B) = rho(A) rho(B), the product on the right by sympy: the rational
    # matrices of tower matrices multiply as the Q-linear maps do.  A last
    # diagonal entry 1 + sum sqrt(p) puts every square class of the primes in
    # all three, so they share one basis
    sympy = pytest.importorskip("sympy")
    rng, roots = random.Random(len(primes)), [Ext.of_sqrt(p) for p in primes]

    def rho(X):
        return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                             for row in linalg._restricted(X)])

    def tower(n):
        M = [[sum((F(rng.randrange(-3, 4)) * r for r in roots if rng.random() < 0.6),
                  F(rng.randrange(-3, 4), rng.randrange(1, 3))) for _ in range(n)] + [ZERO]
             for _ in range(n)]
        return M + [[ZERO] * n + [1 + sum(roots)]]

    for n in (1, 2, 3):
        A, B = tower(n), tower(n)
        assert rho(A).shape == ((n + 1) * 2 ** len(primes),) * 2
        assert rho(mat_mul(A, B)) == rho(A) * rho(B)


# ---------------------------------------------------------------------------
# entrywise kernels and inertia: the integer routes against the per-scalar one
# ---------------------------------------------------------------------------

def _per_scalar(op, A, B):
    return [[op(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


@settings(max_examples=60, deadline=None)
@given(rational_matrices(), st.data())
def test_entrywise_kernels_match_the_per_scalar_route(A, data):
    B = [data.draw(st.lists(fractions, min_size=len(A[0]), max_size=len(A[0]))) for _ in A]
    c = data.draw(fractions)
    for got, want in (
        (mat_add(A, B), _per_scalar(s_add, A, B)),
        (mat_sub(A, B), _per_scalar(s_sub, A, B)),
        (mat_scale(A, c), [[s_mul(c, x) for x in row] for row in A]),
    ):
        assert got == want
        assert all(type(x) is F and (x or x is ZERO) for row in got for x in row)
    assert mat_eq(A, [row[:] for row in A])
    assert mat_eq(A, B) == (A == B)
    # every kind, zeros of each kind and non-finite floats: bit for bit
    X, Y = (data.draw(sparse_mixed(len(A), len(A[0]), 0.5)) for _ in "XY")
    for kernel, op in ((mat_add, s_add), (mat_sub, s_sub)):
        assert _all_bits(kernel(X, Y)) == _all_bits(_per_scalar(op, X, Y))


mixed_scalars = st.sampled_from(
    [F(0), F(0), 0.0, -0.0, F(1, 3), F(-2), 1.5, -2.25, -3.0, Ext.of_sqrt(2), Ext.of_sqrt(3) / 2]
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(mixed_scalars, mixed_scalars), max_size=6))
def test_per_scalar_products_skip_zero_terms_bit_for_bit(pairs):
    # the reference fold keeps every term; skipping zero terms may change
    # neither the value, nor its type, nor the sign of a float zero
    want = F(0)
    for a, b in pairs:
        want = want + a * b
    u, v = [a for a, _ in pairs], [b for _, b in pairs]
    for got in (dot(u, v), mat_mul([u], [[b] for b in v])[0][0] if pairs else want):
        assert type(got) is type(want) and got == want
        if isinstance(want, float):
            assert math.copysign(1, got) == math.copysign(1, want)


def _ref_mat_vec(M, v):
    """Reference: one product decided per vector, the integer route when M and
    v are all Fractions, else the per-scalar fold over the non-near-zero v[j]."""
    flat = [x for row in M for x in row]
    if all(type(x) is F for x in v + flat):
        dv, dm = (math.lcm(*(x.denominator for x in xs)) for xs in (v, flat))
        vi, mi = ([x.numerator * (d // x.denominator) for x in xs]
                  for xs, d in ((v, dv), (flat, dm)))
        w, den = len(M[0]) if M else 0, dv * dm
        sums = (sum(map(operator.mul, mi[r * w : r * w + w], vi)) for r in range(len(M)))
        return [F(t, den) if t else ZERO for t in sums]
    return [_fold_ref((M[i][j], v[j]) for j in range(len(v)) if not s_is_zero(v[j]))
            for i in range(len(M))]


def _fold_ref(pairs, start=ZERO):
    """start + a0 b0 + a1 b1 + ... over every pair, in order."""
    total = start
    for a, b in pairs:
        total = total + a * b
    return total


def _bits(x):
    """Floats by repr (bit for bit, the sign of zero included), exact scalars
    by type and value."""
    return (float, repr(x)) if isinstance(x, float) else (type(x), x)


def _all_bits(M):
    return [list(map(_bits, row)) for row in M]


NONZERO = [F(1, 3), F(1, 10), F(-1, 5), 3, SQRT2, Ext.of_sqrt(3) / 2, 1.5, -2.25, 1e-12, -3e-10]
NONFINITE = [math.inf, -math.inf, math.nan]
ZEROS = [ZERO, F(0), 0, 0.0, -0.0]


@st.composite
def sparse_mixed(draw, m, n, density=0.2):
    """An m x n matrix with at most density * m * n nonzero entries, of every
    kind (now and then an inf or a nan), and zeros of every kind."""
    hot = draw(st.sets(st.integers(0, max(m * n - 1, 0)), max_size=int(density * m * n)))
    nonzero = st.sampled_from(NONZERO * 4 + NONFINITE)
    flat = [draw(nonzero if i in hot else st.sampled_from(ZEROS)) for i in range(m * n)]
    return [flat[i * n : i * n + n] for i in range(m)]


def _all_ints(*mats):
    """Both operands all ints (and not empty): the integer cores' own input,
    whose results stay int; every other product is the fold from ZERO."""
    return all(any(M) and all(type(x) is int for row in M for x in row) for M in mats)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 5), st.integers(0, 6), st.integers(0, 5), st.data())
def test_products_are_the_full_fold_bit_for_bit(m, k, p, data):
    # the sparse fold visits only the pairs of nonzero entries; the full fold
    # visits every pair, so the float conversion, -0.0 and nan all show
    A, B, G = (data.draw(sparse_mixed(r, c)) for r, c in ((m, k), (k, p), (k, k)))
    vs = data.draw(st.lists(sparse_mixed(1, k, 0.6).map(lambda M: M[0]), max_size=3))
    u = data.draw(sparse_mixed(1, k, 0.6))[0]
    start = lambda *mats: 0 if _all_ints(*mats) else ZERO  # noqa: E731
    want = [[_fold_ref(zip(row, col), start(A, B)) for col in zip(*B)] for row in A]
    assert _all_bits(mat_mul(A, B)) == _all_bits(want if k else [[] for _ in A])
    want = [[_fold_ref(((row[j], v[j]) for j in range(k) if not s_is_zero(v[j])), start(A, [v]))
             for row in A] for v in vs]
    assert _all_bits(mat_vecs(A, vs)) == _all_bits(want)
    for v in vs:
        assert _bits(dot(u, v)) == _bits(_fold_ref(zip(u, v), start([u], [v])))
        Gv = [_fold_ref(((row[j], v[j]) for j in range(k) if not s_is_zero(v[j])), start(G, [v]))
              for row in G]
        assert _bits(bilinear(u, G, v)) == _bits(_fold_ref(zip(u, Gv), start([u], [Gv])))


@st.composite
def pure_floats(draw, m, n, density=0.5):
    """An m x n matrix whose nonzero entries are finite floats (the near-zeros
    1e-12 and -3e-10 among them), zeros ZERO, 0.0 or -0.0; now and then one
    exact ONE, which sends the operand down the fold's general path."""
    hot = draw(st.sets(st.integers(0, max(m * n - 1, 0)), max_size=int(density * m * n)))
    nonzero = st.floats(-8, 8).filter(bool) | st.sampled_from([1e-12, -3e-10, 0.1, -2.25])
    flat = [draw(nonzero if i in hot else st.sampled_from([ZERO, 0.0, -0.0]))
            for i in range(m * n)]
    if flat and draw(st.integers(0, 7)) == 0:
        flat[draw(st.integers(0, m * n - 1))] = ONE
    return [flat[i * n : i * n + n] for i in range(m)]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 5), st.integers(0, 6), st.integers(0, 5), st.data())
def test_pure_float_products_are_the_full_fold_bit_for_bit(m, k, p, data):
    # all-float operands sum in floats from the first pair; the full fold
    # turns float there too, and leaves ZERO where it meets no float
    A, B, G = (data.draw(pure_floats(r, c)) for r, c in ((m, k), (k, p), (k, k)))
    vs = data.draw(st.lists(pure_floats(1, k, 0.6).map(lambda M: M[0]), max_size=3))
    u = data.draw(pure_floats(1, k, 0.6))[0]
    want = [[_fold_ref(zip(row, col)) for col in zip(*B)] for row in A]
    assert _all_bits(mat_mul(A, B)) == _all_bits(want if k else [[] for _ in A])
    want = [[_fold_ref((row[j], v[j]) for j in range(k) if not s_is_zero(v[j])) for row in A]
            for v in vs]
    assert _all_bits(mat_vecs(A, vs)) == _all_bits(want)
    for v in vs:
        assert _bits(dot(u, v)) == _bits(_fold_ref(zip(u, v)))
        Gv = [_fold_ref((row[j], v[j]) for j in range(k) if not s_is_zero(v[j])) for row in G]
        assert _bits(bilinear(u, G, v)) == _bits(_fold_ref(zip(u, Gv)))


def test_the_sum_turns_float_where_the_full_fold_meets_a_float():
    # 1/10 stays exact up to the float zero, then 0.1 + 0.2 rounds up, where
    # the exact 3/10 would give 0.3; a near-zero v[1] makes no pair in mat_vecs
    u = [F(1, 10), 0.0, F(1, 5)]
    assert _bits(dot(u, [1, 1, 1])) == _bits(0.1 + 0.2) != _bits(0.3)
    assert mat_mul([u, u[::-1]], [[1], [1], [1]]) == [[0.1 + 0.2], [0.2 + 0.1]]
    assert mat_vecs([u], [[1, 1, 1], [1, 1e-12, 1]]) == [[0.1 + 0.2], [F(3, 10)]]
    assert type(mat_vec([u], [1, 1e-12, 1])[0]) is F


tower_scalars = fractions | fractions.map(lambda c: c * SQRT2)
float_scalars = st.floats(-8, 8) | st.sampled_from([0.0, -0.0, 1e-12, -3e-10, 2.5])
scalar_kinds = st.sampled_from([fractions, tower_scalars, float_scalars, mixed_scalars])


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.data())
def test_mat_vecs_matches_the_per_vector_mat_vec(m, k, data):
    # one kind for M, each v its own: a batch mixes the integer route and the fold
    M_kind = data.draw(scalar_kinds)
    M = [data.draw(st.lists(M_kind, min_size=k, max_size=k)) for _ in range(m)]
    vs = data.draw(st.lists(scalar_kinds.flatmap(
        lambda kind: st.lists(kind, min_size=k, max_size=k)), max_size=4))
    got = mat_vecs(M, vs)
    want = [_ref_mat_vec(M, v) for v in vs]
    assert [list(map(_bits, w)) for w in got] == [list(map(_bits, w)) for w in want]
    assert [mat_vec(M, v) for v in vs] == got


BIG = 2 ** 200
DENSITIES = [0, 0.1, 0.5, 1]
# the corner shapes (m, k, p) of A (m x k) times B (k x p), then any shape
corner_shapes = st.sampled_from([(0, 3, 2), (3, 0, 2), (2, 3, 0), (1, 1, 1), (1, 4, 1), (1, 4, 5)])
shapes = corner_shapes | st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))


@st.composite
def integer_route(draw, m, n, density, blank_row=None, blank_col=None):
    """An m x n matrix of ints or of Fractions (zeros ZERO) with round(density
    m n) nonzero entries, 2^200 and negatives among them; row blank_row and
    column blank_col all zero."""
    order = draw(st.permutations(range(m * n)))
    hot = set(order[:round(density * m * n)])
    nonzero = st.integers(-50, 50).filter(bool) | st.sampled_from([BIG, -BIG, BIG + 1])
    if draw(st.booleans()):
        nonzero = st.builds(F, nonzero, st.integers(1, 12))
        zero = ZERO
    else:
        zero = 0
    flat = [draw(nonzero) if i in hot and i // n != blank_row and i % n != blank_col
            else zero for i in range(m * n)]
    return [flat[i * n : i * n + n] for i in range(m)]


def _dense(rows, cols):
    """The dense oracle: every pair of every row and column, zeros included."""
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in rows]


def _typed(M):
    return [[(type(x), x) for x in row] for row in M]


@pytest.mark.parametrize("density", DENSITIES)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(shapes, st.data())
def test_integer_products_match_the_dense_oracle(density, shape, data):
    # Gustavson's product visits only pairs of nonzero entries: every value and
    # type must be the dense sum's, all-int operands giving ints
    m, k, p = shape
    blank = st.none() | st.integers(0, 6)
    A = data.draw(integer_route(m, k, density, data.draw(blank)))
    B = data.draw(integer_route(k, p, density, None, data.draw(blank)))
    vs = [row for row, in (data.draw(integer_route(1, k, density)) for _ in range(3))]
    kind = lambda *mats: int if _all_ints(*mats) else F  # noqa: E731
    want = [[kind(A, B)(x) for x in row] for row in _dense(A, list(zip(*B)))]
    assert _typed(mat_mul(A, B)) == _typed(want)
    want = [[kind(A, [v])(x) for (x,) in _dense(A, [v])] for v in vs]
    assert _typed(mat_vecs(A, vs)) == _typed(want)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 4), st.integers(0, 4), st.data())
def test_a_mixed_mat_vecs_batch_is_its_vectors_in_order(m, k, data):
    # int and Fraction vectors share one integer product, the tower and float
    # ones one fold; each result must be its own mat_vec's, by repr
    M = data.draw(integer_route(m, k, data.draw(st.sampled_from(DENSITIES))))
    kinds = st.sampled_from([ints, fractions, tower_scalars, float_scalars])
    vs = data.draw(st.lists(kinds.flatmap(lambda kind: st.lists(kind, min_size=k, max_size=k)),
                            max_size=6))
    assert repr(mat_vecs(M, vs)) == repr([mat_vec(M, v) for v in vs])


def test_mat_vecs_makes_one_integer_product_per_batch(monkeypatch):
    calls, real = [], linalg._int_products

    def counting(rows, cols):
        calls.append(rows)
        return real(rows, cols)

    monkeypatch.setattr(linalg, "_int_products", counting)
    M = [[F(1, 2), ZERO, F(3)], [ZERO, ZERO, F(-1, 3)]]
    vs = [[1, 2, 3], [F(1, 3), ZERO, ZERO], [SQRT2, 0, 1], [0.5, 0, 0], [0, BIG, -1]]
    got = mat_vecs(M, vs)
    assert len(calls) == 1 and len(calls[0]) == 3
    assert repr(got) == repr([mat_vec(M, v) for v in vs])


ints = st.integers(-50, 50)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 5), st.data())
def test_integer_cores_return_ints_equal_to_the_fraction_route(m, k, p, data):
    # all-int operands are the cores' own input: the result stays int and equals
    # what the same values give as Fractions
    A = [data.draw(st.lists(ints, min_size=k, max_size=k)) for _ in range(m)]
    A2 = [data.draw(st.lists(ints, min_size=k, max_size=k)) for _ in range(m)]
    B = [data.draw(st.lists(ints, min_size=p, max_size=p)) for _ in range(k)]
    vs = data.draw(st.lists(st.lists(ints, min_size=k, max_size=k), max_size=3))
    c = data.draw(ints)
    Q = [data.draw(st.lists(ints, min_size=k, max_size=k)) for _ in range(k)]
    sym = [[Q[i][j] + Q[j][i] for j in range(k)] for i in range(k)]
    fr = lambda M: [[F(x) for x in row] for row in M]  # noqa: E731
    for got, want in (
        (mat_mul(A, B), mat_mul(fr(A), fr(B))),
        (mat_vecs(A, vs), mat_vecs(fr(A), fr(vs))),
        (mat_add(A, A2), mat_add(fr(A), fr(A2))),
        (mat_sub(A, A2), mat_sub(fr(A), fr(A2))),
        (mat_scale(A, c), mat_scale(fr(A), F(c))),
    ):
        assert got == want
        assert all(type(x) is int for row in got for x in row)
    # elimination divides: its results are the Fraction route's, type for type
    for got, want in (
        (rank(A), rank(fr(A))),
        (nullspace(A), nullspace(fr(A))),
        (det(Q), det(fr(Q))),
        (char_poly(Q), char_poly(fr(Q))),
        (inertia_symmetric(sym), inertia_symmetric(fr(sym))),
    ):
        assert repr(got) == repr(want)


def test_rank_of_an_int_matrix_builds_no_fraction(monkeypatch):
    real, built = F.__new__, [0]

    def counting(cls, *args, **kwargs):
        built[0] += 1
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", staticmethod(counting))
    got = rank([[1, 2], [3, 4]])
    monkeypatch.undo()
    assert (got, built[0]) == (2, 0)


def test_nullspace_and_solve_of_an_int_matrix_build_only_their_results(monkeypatch):
    # the integer RREF is read as it is: one Fraction per nonzero entry returned
    # off the pivot rows, none for the free ONEs and the ZEROs
    real, built = F.__new__, [0]

    def counting(cls, *args, **kwargs):
        built[0] += 1
        return real(cls, *args, **kwargs)

    M = [[2, 4, 0, 6], [1, 2, 3, 4], [3, 6, 3, 10]]
    monkeypatch.setattr(F, "__new__", staticmethod(counting))
    kernel = nullspace(M)
    kernel_built, built[0] = built[0], 0
    x = solve(M, [2, 4, 6])
    monkeypatch.undo()
    assert kernel == [[-2, 1, 0, 0], [-3, 0, F(-1, 3), 1]]
    assert kernel_built == 3  # -2, -3 and -1/3
    assert (x, built[0]) == ([1, 0, 1, 0], 2)
    assert solve(M, [2, 4, 7]) is None


@settings(max_examples=60, deadline=None)
@given(rational_matrices(), rational_matrices(), st.sampled_from(["fraction", "tower", "float"]))
def test_values_divide_back_to_their_matrices(A, B, kind):
    # the values a rational algebra gives the matrices that act with it
    to = {"fraction": lambda x: x, "tower": lambda x: s_mul(SQRT2, x) if x else x,
          "float": float}[kind]
    A, B = _map(to, A), _map(to, B)
    vals = abelian(1).values(A, B)
    back = [V.mat() for V in vals]
    assert [list(map(_bits, row)) for M in back for row in M] == \
        [list(map(_bits, row)) for M in (A, B) for row in M]
    mats, (den,) = [V.N for V in vals], {V.den for V in vals}
    if kind == "fraction":
        assert all(type(x) is int for M in mats for row in M for x in row)
        flat = [x for M in (A, B) for row in M for x in row]
        assert den == math.lcm(*(x.denominator for x in flat))
    else:
        assert (mats, den) == ([A, B], 1)
    # a matrix of another kind over a denominator other than 1 is divided entrywise
    assert _same(MatOver(A, 3).mat(), [[s_mul(x, F(1, 3)) for x in row] for row in A])


def test_entrywise_kernels_fall_back_on_mixed_input():
    r2 = Ext.of_sqrt(2)
    A = [[F(1, 2), r2], [F(0), F(3)]]
    B = [[F(1, 3), F(1)], [2.5, F(-3)]]
    for op, kernel in ((s_add, mat_add), (s_sub, mat_sub)):
        assert kernel(A, B) == _per_scalar(op, A, B)
        assert kernel(A, A) == _per_scalar(op, A, A)
    got = mat_add(A, B)
    assert isinstance(got[0][1], Ext) and isinstance(got[1][0], float)
    for c in (r2, 0.5, F(2)):
        assert mat_scale(A, c) == [[s_mul(c, x) for x in row] for row in A]
    assert mat_eq(A, [[F(1, 2), r2], [F(0), F(3)]])
    assert not mat_eq(A, [[F(1, 2), r2], [F(0), F(4)]])


def test_mat_eq_tolerance_and_shapes():
    assert mat_eq([[1.0, 2.0]], [[1.0 + 1e-12, 2.0]])
    assert not mat_eq([[1.0, 2.0]], [[1.1, 2.0]])
    assert mat_eq([[F(1), 2.0]], [[1.0, F(2)]])
    assert not mat_eq([[F(1), F(2)]], [[F(1)], [F(2)]])
    assert not mat_eq([[F(1)]], [[F(1)], [F(1)]])
    assert not mat_eq([[1.0, 2.0]], [[1.0], [2.0]])
    assert mat_eq([], [])


def _random_symmetric(rng, n):
    """Dense, zero-diagonal or low-rank (singular) rational symmetric."""
    def q():
        return F(rng.randint(-4, 4), rng.randint(1, 3))

    kind = rng.choice(("dense", "zero_diagonal", "low_rank"))
    if kind == "low_rank":  # B diag(d) B^T with B n x r, r < n
        r = rng.randint(0, n - 1)
        B = [[q() for _ in range(r)] for _ in range(n)]
        d = [q() for _ in range(r)]
        return [[sum((B[i][t] * d[t] * B[j][t] for t in range(r)), F(0)) for j in range(n)]
                for i in range(n)]
    M = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i if kind == "dense" else i + 1, n):
            M[i][j] = M[j][i] = q()
    return M


def test_inertia_agrees_with_sympy_eigenvalue_signs():
    # the signs of sympy's eigenvalues, counted with multiplicity by its
    # real-root counter on the square-free factors of det(x I - M)
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(17)
    seen = set()
    for _ in range(400):
        n = rng.randint(1, 6)
        M = _random_symmetric(rng, n)
        sM = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row] for row in M])
        pos = neg = 0
        for factor, mult in sM.charpoly(x).sqf_list()[1]:
            at_zero = mult * (factor.eval(0) == 0)
            pos += mult * factor.count_roots(0, None) - at_zero
            neg += mult * factor.count_roots(None, 0) - at_zero
        assert inertia_symmetric(M) == (pos, neg, n - pos - neg)
        seen.update({"singular": pos + neg < n, "indefinite": pos and neg,
                     "zero_diagonal": n > 1 and not any(M[i][i] for i in range(n))}.items())
    assert {(k, True) for k in ("singular", "indefinite", "zero_diagonal")} <= seen
    assert not is_positive_definite(_mat([[1, 0, 0], [0, -1, 0], [0, 0, 1]]))
    assert not is_positive_definite(_mat([[1, 1], [1, 1]]))  # singular, positive semidefinite
    assert is_positive_definite(_mat([[2, 1], [1, 2]]))


# ---------------------------------------------------------------------------
# MatOver: numerators over one denominator
# ---------------------------------------------------------------------------

@st.composite
def values(draw, m, n, exact):
    """An m x n MatOver: ints or Fractions over 1..12, or numerators of every
    kind (tower, float, -0.0, inf, nan, zeros of each kind) over 1."""
    if exact:
        return MatOver(draw(integer_route(m, n, 0.5)), draw(st.integers(1, 12)))
    return MatOver(draw(sparse_mixed(m, n, 0.5)))


def _outcome(fn):
    """fn()'s result bit for bit (a value divided back first), or its exception."""
    try:
        got = fn()
    except Exception as exc:  # both sides must fail alike
        return type(exc).__name__, str(exc)
    return _deep_bits(got.mat() if isinstance(got, MatOver) else got)


def _deep_bits(x):
    """_bits all the way down, an int read as a Fraction: a kernel on a matrix
    mixing ints and Fractions keeps its ints, where ``MatOver.mat`` gives Fractions."""
    if isinstance(x, (list, tuple)):
        return [_deep_bits(y) for y in x]
    return _bits(F(x) if type(x) is int else x)


def _solved_by_rref(A, B):
    """X with A X = B off the RREF of [A | B], as inverse took it before."""
    n = len(A)
    R, pivots = rref([list(a) + list(b) for a, b in zip(A, B)])
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in R[:n]]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.booleans(), st.data())
def test_values_match_the_kernels_on_their_divided_back_matrices(m, k, p, exact, data):
    # every operation of a value is the kernel on the divided-back matrices: the
    # same values and types on the exact route, where the operands' denominators
    # differ, and the same float bits (-0.0 included) for numerators over 1
    A, A2 = data.draw(values(m, k, exact)), data.draw(values(m, k, exact))
    B, V = data.draw(values(k, p, exact)), data.draw(values(p, k, exact))
    Q, X = data.draw(values(k, k, exact)), data.draw(values(k, p, exact))
    c = data.draw(st.sampled_from([1, 2, -3, F(1, 2), F(-5, 3), F(4)]))
    same = MatOver(mat_scale(A.N, 3), A.den * 3) if exact else A
    for got, want in (
        (lambda: A @ B, lambda: mat_mul(A.mat(), B.mat())),
        (lambda: A.on_rows(V), lambda: mat_vecs(A.mat(), V.mat())),
        (lambda: A + A2, lambda: mat_add(A.mat(), A2.mat())),
        (lambda: A - A2, lambda: mat_sub(A.mat(), A2.mat())),
        (lambda: -A, lambda: mat_scale(A.mat(), -1)),
        (lambda: A * c, lambda: mat_scale(A.mat(), c)),
        (lambda: A == A2, lambda: mat_eq(A.mat(), A2.mat())),
        (lambda: A == same, lambda: mat_eq(A.mat(), same.mat())),
        (lambda: A.T, lambda: transpose(A.mat())),
        (lambda: A.max_abs(), lambda: max_abs(_flat(A.mat()))),
        (lambda: stacked([A, A2, B.T]), lambda: A.mat() + A2.mat() + transpose(B.mat())),
        (lambda: mat_solve(Q, X), lambda: _solved_by_rref(Q.mat(), X.mat())),
    ):
        assert _outcome(got) == _outcome(want)
    if exact:  # a value is equal to itself over any denominator
        assert _outcome(lambda: A == same) == (bool, True)
        if all(type(x) is int for x in _flat(A.N)):  # c's denominator joins den
            assert all(type(x) is int for x in _flat((A * c).N))


@pytest.mark.parametrize("seed", range(4))
def test_value_eigenspaces_divide_the_eigenvalues(seed):
    # M = P D P^-1 over 6 has the eigenvalues D / 6 and the eigenvectors of its
    # numerators; floats over 1 take the same call
    P = random_unimodular(4, random.Random(seed))
    D = [[[3, 3, -6, 12][i] if i == j else 0 for j in range(4)] for i in range(4)]
    N = [[int(x) for x in row] for row in mat_mul(P, mat_mul(D, inverse(P)))]
    G = MatOver(identity(4))
    assert repr(MatOver(N, 6).eigenspaces(G)) == repr(eigenspaces(MatOver(N, 6).mat(), G.mat()))
    floats = [[float(x) for x in row] for row in N]
    assert repr(MatOver(floats).eigenspaces(G)) == repr(eigenspaces(floats, G.mat()))
    with pytest.raises(ValueError, match="singular"):
        mat_solve(MatOver([[0] * 4 for _ in range(4)], 5), MatOver(N))
