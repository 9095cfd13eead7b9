"""Lie algebra kernel: brackets, Jacobi, center, series, Killing,
derivations, central quotients."""

import random
from dataclasses import fields
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqslie.acm import conjugate_structure
from aqslie.constructors import (
    KahlerLieAlgebra,
    abelian,
    central_extension,
    su2,
    su3,
    weighted_heisenberg_2n1,
    weighted_heisenberg_4n1,
)
from aqslie.errors import JacobiError, PreconditionError
from aqslie.exterior import form_from_bilinear
from aqslie.lie_core import (
    LieAlgebra,
    LowerCentralSeries,
    ad_matrix,
    ad_value,
    bracket,
    center,
    derivations,
    jacobi_check,
    killing_form,
    lower_central_series,
)
from aqslie.linalg import (
    Subspace,
    _int_scaled,
    identity,
    mat_eq,
    mat_vec,
    nullspace,
    random_unimodular,
    vec_eq,
    vec_is_zero,
)
from aqslie.scalars import Ext, get_tolerance, s_add, s_eq, s_is_zero, s_mul, set_tolerance
from aqslie.tower import TowerOver
from bracket_routes import ad_matrix_routes, bracket_routes
from oracles import quotient_by_center_line, structure_constant


def h5():
    return weighted_heisenberg_4n1(1, [1])[0]


def test_bracket_heisenberg_and_antisymmetry():
    L = h5()
    t1, t4 = L.basis_vector(1), L.basis_vector(4)
    assert bracket(L, t1, t4) == [F(2), 0, 0, 0, 0]
    assert bracket(L, t4, t1) == [F(-2), 0, 0, 0, 0]
    assert vec_is_zero(bracket(L, t1, t1))
    # bilinearity on a combination
    x = [F(0), F(1), F(0), F(0), F(3)]
    assert bracket(L, x, x) == [F(0)] * 5


def _ad_numerators(L, X):
    """(numerators, denominator) of ad_X as a value: the class 1 and its
    denominator where the oracle takes the integer route (a rational table, X
    all rational or all int), else the entries over 1."""
    V = ad_value(L, L.values([X])[0])
    integer = L._tables()[1] is not None and _int_scaled(X) is not None
    return (V.parts[1], V.den) if integer else (V.mat(), 1)


def test_ad_value_carries_the_table_denominator():
    # c_01^2 = 1/2 and c_02^1 = -1/3: the table's common denominator is 6.  An
    # all-int vector is an exact vector to bracket and ad_matrix; its numerator
    # form comes only with its denominator
    L = LieAlgebra.from_brackets(3, {(0, 1): {2: F(1, 2)}, (0, 2): {1: F(-1, 3)}})
    X = [2, 3, 0]
    N, den = _ad_numerators(L, X)
    assert den == 6 and all(type(x) is int for row in N for x in row)
    exact = ad_matrix(L, [F(x) for x in X])
    assert TowerOver({1: N}, den).mat() == ad_matrix(L, X) == exact
    assert _ad_numerators(L, [F(x, 5) for x in X]) == (N, 30)
    # a vector over its own denominator joins the table's
    V = ad_value(L, TowerOver({1: [X]}, 5))
    assert (V.parts[1], V.den) == (N, 30)
    assert bracket(L, [1, 0, 0], [0, 1, 0]) == [0, 0, F(1, 2)]
    assert all(type(x) is F for x in bracket(L, [1, 0, 0], [0, 1, 0]))
    Lf = LieAlgebra.from_brackets(3, {(0, 1): {2: 0.5}, (0, 2): {1: -1 / 3}}, mode="float")
    Nf, df = _ad_numerators(Lf, [2.0, 3.0, 0.0])
    assert df == 1 and Nf == ad_matrix(Lf, [2.0, 3.0, 0.0])
    # a class value over its denominator meets a float table divided back
    assert mat_eq(ad_value(Lf, TowerOver({1: [X]}, 5)).mat(), ad_matrix(Lf, [0.4, 0.6, 0.0]))


def test_bracket_abelian():
    L = abelian(5)
    for i in range(5):
        for j in range(5):
            assert vec_is_zero(bracket(L, L.basis_vector(i), L.basis_vector(j)))


def test_jacobi_check_passes_on_shipped():
    for L in (h5(), abelian(5), su2(), su3()):
        assert jacobi_check(L) == []


def test_jacobi_cyclic_tensor_is_consistent():
    # c121=..., the tensor [b1,b2]=b3, [b1,b3]=b2, [b2,b3]=b1 satisfies
    # Jacobi (hand expansion: all three cyclic terms vanish pairwise), so it
    # must NOT be flagged; a genuine violator replaces the last relation.
    ok = LieAlgebra.from_brackets(
        3, {(0, 1): {2: 1}, (0, 2): {1: 1}, (1, 2): {0: 1}}, check=False
    )
    assert jacobi_check(ok) == []
    bad = LieAlgebra.from_brackets(3, {(0, 1): {2: 1}, (1, 2): {1: 1}}, check=False)
    assert jacobi_check(bad) == [(0, 1, 2)]
    with pytest.raises(JacobiError):
        LieAlgebra.from_brackets(3, {(0, 1): {2: 1}, (1, 2): {1: 1}})


def _reference_jacobi(L):
    """Triples (i, j, k), i < j < k, whose cyclic sum is nonzero, from c_ij^k:
    the b_m component of [[b_i,b_j],b_k] + [[b_j,b_k],b_i] + [[b_k,b_i],b_j]
    (zero within the tolerance in float mode)."""
    n = L.dim
    c = [[[structure_constant(L, i, j, k) for k in range(n)] for j in range(n)] for i in range(n)]

    def double(i, j, k, m):
        return sum((c[i][j][t] * c[t][k][m] for t in range(n) if c[i][j][t]), F(0))

    return [
        (i, j, k)
        for i in range(n)
        for j in range(i + 1, n)
        for k in range(j + 1, n)
        if not all(s_is_zero(double(i, j, k, m) + double(j, k, i, m) + double(k, i, j, m))
                   for m in range(n))
    ]


coefficients = st.builds(F, st.integers(-3, 3).filter(bool), st.integers(1, 3))


@st.composite
def two_step_tables(draw):
    """Basis-aligned 2-step tables: brackets of indices in one set land on
    indices of a disjoint set, so every bracket is central."""
    n = draw(st.integers(2, 8))
    targets = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    paired = [i for i in range(n) if i not in targets]
    table = {}
    for i in paired:
        for j in paired:
            if i < j and draw(st.booleans()):
                ks = draw(st.sets(st.sampled_from(sorted(targets)), min_size=1))
                table[(i, j)] = {k: draw(coefficients) for k in ks}
    return n, table


@st.composite
def random_tables(draw):
    """Sparse tables with arbitrary targets (mostly not Jacobi)."""
    n = draw(st.integers(3, 6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    table = {}
    for pair in draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=5, unique=True)):
        ks = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=2))
        table[pair] = {k: draw(coefficients) for k in ks}
    return n, table


@settings(max_examples=60, deadline=None)
@given(two_step_tables())
def test_jacobi_proof_on_two_step_tables_matches_the_triple_loop(case):
    n, table = case
    L = LieAlgebra.from_brackets(n, table, check=False)
    assert jacobi_check(L) == _reference_jacobi(L) == []


@settings(max_examples=80, deadline=None)
@given(random_tables())
def test_jacobi_check_off_the_central_condition_matches_the_triple_loop(case):
    # the same triples on the rational table, its sqrt(2)-scaled tower copy
    # (every Jacobiator doubles) and its float copy
    n, table = case
    L = LieAlgebra.from_brackets(n, table, check=False)
    expected = _reference_jacobi(L)
    assert jacobi_check(L) == expected
    for scale, mode in ((Ext.of_sqrt(2), "exact"), (1.0, "float")):
        Ls = LieAlgebra.from_brackets(n, _scaled(table, scale), mode=mode, check=False)
        assert jacobi_check(Ls) == _reference_jacobi(Ls) == expected, mode


def test_jacobi_check_on_a_bumped_float_conjugated_h9():
    # constants up to 222: rounding stays inside the tolerance, a bump of 1e-6
    # on one constant does not, and both passes name the same triples
    from floatcopy import float_structure

    S = weighted_heisenberg_4n1(2, [1, 2])[1][0]
    Lf = float_structure(conjugate_structure(S, random_unimodular(9, random.Random(1)))).L
    assert jacobi_check(Lf) == _reference_jacobi(Lf) == []
    table = Lf.table()
    pair = min(table)
    k = min(table[pair])
    table[pair][k] += 1e-6
    bumped = LieAlgebra.from_brackets(9, table, mode="float", check=False)
    bad = jacobi_check(bumped)
    assert bad == _reference_jacobi(bumped) and len(bad) == 38


def test_non_jacobi_table_still_raises():
    # [b1,b2] = b5, [b3,b4] = b5 is 2-step; [b1,b5] = b2 breaks the central
    # condition and Jacobi at (b1, b3, b4): [[b3,b4],b1] = -b2
    table = {(0, 1): {4: 1}, (2, 3): {4: 1}, (0, 4): {1: 1}}
    bad = LieAlgebra.from_brackets(5, table, check=False)
    assert jacobi_check(bad) == _reference_jacobi(bad) != []
    with pytest.raises(JacobiError):
        LieAlgebra.from_brackets(5, table)


def test_center_weighted_heisenberg():
    L = weighted_heisenberg_4n1(2, [1, 2])[0]
    Z = center(L)
    assert Z.dim == 1 and Z.contains(L.basis_vector(0))


def test_center_abelian_full():
    assert center(abelian(5)).dim == 5


def test_center_zero_weight_block():
    # h9_(1,0): the zero-weight block tau2, tau4, tau6, tau8 is central
    L = weighted_heisenberg_4n1(2, [1, 0])[0]
    Z = center(L)
    assert Z.dim == 5
    for i in (0, 2, 4, 6, 8):
        assert Z.contains(L.basis_vector(i))
    for i in (1, 3, 5, 7):
        assert not Z.contains(L.basis_vector(i))


def test_lower_central_series():
    lcs = lower_central_series(weighted_heisenberg_4n1(2, [1, 2])[0])
    assert lcs.is_nilpotent and lcs.step == 2
    assert lower_central_series(abelian(4)).step == 1
    s = lower_central_series(su2())
    assert not s.is_nilpotent and s.step is None
    assert s.terms[-1].dim == 3  # stabilizes at the full algebra


def _reference_lower_central_series(L):
    """The series from brackets of basis vectors: [g, V] spanned by [b_i, w]."""
    full = Subspace.from_vectors(L.dim, [L.basis_vector(i) for i in range(L.dim)])
    terms, current = [full], full
    while True:
        nxt = Subspace.from_vectors(L.dim, [bracket(L, L.basis_vector(i), list(w))
                                            for i in range(L.dim) for w in current.basis])
        if nxt.dim == current.dim:
            return LowerCentralSeries(tuple(terms), False, None)
        terms.append(nxt)
        current = nxt
        if nxt.dim == 0:
            return LowerCentralSeries(tuple(terms), True, len(terms) - 1)


def _reference_derivations(L):
    """Derivations from c_ij^k: row (i < j, m) is the b_m component of
    D[b_i, b_j] - [D b_i, b_j] - [b_i, D b_j] on the flattened D."""
    n = L.dim
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            for m in range(n):
                row = [F(0)] * (n * n)
                for k in range(n):
                    row[m * n + k] += structure_constant(L, i, j, k)
                    row[k * n + i] -= structure_constant(L, k, j, m)
                    row[k * n + j] -= structure_constant(L, i, k, m)
                rows.append(row)
    return Subspace.from_vectors(n * n, nullspace(rows, n * n))


def _table_cases():
    from aqslie.scalars import parse_scalar

    h9c1 = conjugate_structure(weighted_heisenberg_4n1(2, [1, 2])[1][0],
                               random_unimodular(9, random.Random(1)))
    return {
        "su3": su3(),
        "h9c1": h9c1.L,
        "sqrt-h9": weighted_heisenberg_4n1(2, [parse_scalar("sqrt(2)"), F(3, 2)])[0],
        "sqrt-su2": LieAlgebra.from_brackets(3, _scaled(su2().table(), Ext.of_sqrt(2))),
    }


@pytest.mark.parametrize("name", ["su3", "h9c1", "sqrt-h9", "sqrt-su2"])
def test_series_and_derivations_match_the_bracket_oracles(name):
    L = _table_cases()[name]
    assert lower_central_series(L) == _reference_lower_central_series(L)
    assert derivations(L) == _reference_derivations(L)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(random_tables())
def test_series_and_derivations_match_the_oracles_on_random_tables(case):
    n, table = case
    for scale in (1, Ext.of_sqrt(2)):
        L = LieAlgebra.from_brackets(n, _scaled(table, scale), check=False)
        assert lower_central_series(L) == _reference_lower_central_series(L)
        assert derivations(L) == _reference_derivations(L)


def test_killing_su2():
    kf = killing_form(su2())
    assert [[int(x) for x in row] for row in kf.matrix] == [
        [-2, 0, 0],
        [0, -2, 0],
        [0, 0, -2],
    ]
    assert kf.definiteness == "negative_definite"


def test_killing_zero_cases():
    assert killing_form(abelian(3)).definiteness == "zero"
    assert killing_form(h5()).definiteness == "zero"


def test_killing_ad_invariance():
    # B([Z,X],Y) + B(X,[Z,Y]) = 0 on all basis triples
    for L in (su2(), su3(), h5()):
        B = [list(r) for r in killing_form(L).matrix]
        n = L.dim
        for z in range(n):
            bz = L.basis_vector(z)
            for x in range(n):
                for y in range(n):
                    zx = bracket(L, bz, L.basis_vector(x))
                    zy = bracket(L, bz, L.basis_vector(y))
                    lhs = s_add(
                        _form(B, zx, L.basis_vector(y)),
                        _form(B, L.basis_vector(x), zy),
                    )
                    assert s_is_zero(lhs)


def _form(B, u, v):
    from aqslie.linalg import bilinear

    return bilinear(u, B, v)


def test_derivations_dimensions():
    assert derivations(su2()).dim == 3  # = inner derivations, semisimple
    assert derivations(abelian(2)).dim == 4  # all endomorphisms
    h3 = weighted_heisenberg_2n1(1, [1])[0]
    assert derivations(h3).dim == 6


def test_derivations_satisfy_leibniz():
    L = weighted_heisenberg_2n1(1, [1])[0]
    der = derivations(L)
    for flat in der.basis:
        D = [list(flat[i * L.dim:(i + 1) * L.dim]) for i in range(L.dim)]
        for i in range(L.dim):
            for j in range(L.dim):
                lhs = mat_vec(D, bracket(L, L.basis_vector(i), L.basis_vector(j)))
                rhs1 = bracket(L, mat_vec(D, L.basis_vector(i)), L.basis_vector(j))
                rhs2 = bracket(L, L.basis_vector(i), mat_vec(D, L.basis_vector(j)))
                assert vec_eq(lhs, [s_add(a, b) for a, b in zip(rhs1, rhs2)])


def _kernel_complement(L, xi_index=0):
    eta = L.basis_vector(xi_index)
    return Subspace.from_vectors(L.dim, nullspace([eta], L.dim))


def test_quotient_by_center_line_heisenberg():
    L = h5()
    quot = quotient_by_center_line(L, L.basis_vector(0), _kernel_complement(L))
    assert quot.algebra.dim == 4
    assert quot.algebra.brackets == ()  # abelian per the classification proof
    # cocycle reproduces d eta: omega(tau1, tau4) = -eta([tau1,tau4]) = -2
    assert quot.cocycle[0][3] == F(-2)
    assert quot.cocycle[1][2] == F(-2)


def test_quotient_abelian():
    L = abelian(5)
    quot = quotient_by_center_line(L, L.basis_vector(0), _kernel_complement(L))
    assert quot.algebra.brackets == ()


def test_quotient_h9():
    L = weighted_heisenberg_4n1(2, [1, 2])[0]
    quot = quotient_by_center_line(L, L.basis_vector(0), _kernel_complement(L))
    assert quot.algebra.dim == 8 and quot.algebra.brackets == ()


def test_quotient_preconditions():
    L = h5()
    with pytest.raises(PreconditionError):
        quotient_by_center_line(L, L.basis_vector(1), _kernel_complement(L))  # not central
    bad = Subspace.from_vectors(5, [L.basis_vector(i) for i in (0, 1, 2, 3)])
    with pytest.raises(PreconditionError):
        quotient_by_center_line(L, L.basis_vector(0), bad)  # xi inside complement


@pytest.mark.parametrize("tol", [1e-9, 1e-7, 1e-6])
def test_float_centrality_check_against_the_rank_test(tol):
    """quotient_by_center_line tests that xi is central by ad(xi) = 0 entrywise,
    within the absolute tolerance.  The rank test of xi against center(L) decides
    the same on the float copy of h9 conjugated by random_unimodular(9, Random(1))
    (structure constants up to 222): both accept xi and both reject xi moved by
    1e-5 or more.  For moves of about the tolerance the entrywise test is the
    stricter one: it rejects some xi the rank test accepts, never the reverse."""
    Sc = conjugate_structure(weighted_heisenberg_4n1(2, [1, 2])[1][0],
                             random_unimodular(9, random.Random(1)))
    table = {p: {k: float(v) for k, v in e.items()} for p, e in Sc.L.table().items()}
    L = LieAlgebra.from_brackets(9, table, mode="float", check=False)
    xi = [float(x) for x in Sc.xi]
    p = next(i for i, x in enumerate(xi) if x)
    D = Subspace.from_vectors(9, [L.basis_vector(i) for i in range(9) if i != p])
    old = get_tolerance()
    set_tolerance(tol)
    try:
        for eps in (0, 1e-12, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-3):
            for k in (0, 4):
                x = list(xi)
                x[k] += eps
                try:
                    quotient_by_center_line(L, x, D)
                    entrywise = True
                except PreconditionError as err:
                    entrywise = str(err) != "xi is not central"
                rank_test = center(L).contains(x)
                assert rank_test or not entrywise, (eps, k)
                if eps == 0 or eps >= 1e-5:
                    assert entrywise == rank_test == (eps == 0), (eps, k)
    finally:
        set_tolerance(old)


def test_quotient_then_extension_round_trip():
    # re-extending the quotient by its cocycle reproduces the brackets
    L = weighted_heisenberg_4n1(2, [1, 2])[0]
    quot = quotient_by_center_line(L, L.basis_vector(0), _kernel_complement(L))
    H = KahlerLieAlgebra(quot.algebra, tuple(map(tuple, _phi_on_quotient())),
                         tuple(map(tuple, identity(8))))  # built without validation
    w = form_from_bilinear([list(r) for r in quot.cocycle])
    L2, S2 = central_extension(H, w)
    # extension has xi last; original has xi first: compare bracket tables
    # through the index shift sigma(l) = l - 1 mod structure
    for (i, j), entries in L2.brackets:
        for k, v in entries:
            src = bracket(L, L.basis_vector(i + 1), L.basis_vector(j + 1))
            want = src[0] if k == 8 else src[k + 1]
            assert v == want
    for (i, j), entries in L.brackets:
        # every original bracket appears in the extension
        w_ij = bracket(L2, L2.basis_vector(i - 1), L2.basis_vector(j - 1))
        src = bracket(L, L.basis_vector(i), L.basis_vector(j))
        assert w_ij[8] == src[0]


def _phi_on_quotient():
    J = [[F(0)] * 8 for _ in range(8)]
    for r in range(1, 3):
        J[2 + r - 1][r - 1] = F(1)
        J[r - 1][2 + r - 1] = F(-1)
        J[6 + r - 1][4 + r - 1] = F(1)
        J[4 + r - 1][6 + r - 1] = F(-1)
    return J


def test_ad_matrix_action():
    L = su2()
    ad1 = ad_matrix(L, L.basis_vector(0))
    assert mat_vec(ad1, L.basis_vector(1)) == bracket(
        L, L.basis_vector(0), L.basis_vector(1)
    )


def _bits(x):
    """Floats by repr (bit for bit), exact scalars by type and value."""
    return (float, repr(x)) if isinstance(x, float) else (type(x), x)


def test_basis_ad_is_the_bracket_columns_bit_for_bit():
    from aqslie.scalars import parse_scalar
    from floatcopy import float_structure

    h9 = weighted_heisenberg_4n1(2, [1, 2])
    sqrt_weights = [parse_scalar("sqrt(2)"), parse_scalar("3/2*sqrt(5)")]
    h9c1 = conjugate_structure(h9[1][0], random_unimodular(9, random.Random(1)))
    cases = {
        "h9": h9[0],
        "su2": su2(),
        "su3": su3(),
        "sqrt-h9": weighted_heisenberg_4n1(2, sqrt_weights)[0],
        "h9c1": h9c1.L,
        "float-h9c1": float_structure(h9c1).L,
    }
    assert any(isinstance(v, Ext) for _, e in cases["sqrt-h9"].brackets for _, v in e)
    assert all(isinstance(v, float) for _, e in cases["float-h9c1"].brackets for _, v in e)
    for name, L in cases.items():
        ads = L.ad_values()[0]
        for i in range(L.dim):
            got, want = ads[i].mat(), ad_matrix(L, L.basis_vector(i))
            assert [list(map(_bits, r)) for r in got] == [list(map(_bits, r)) for r in want], (name, i)


def test_ad_values_across_fields_keep_the_true_ad_matrices():
    # a rational algebra with a tower matrix is no integer route, and neither
    # is a tower algebra with a rational matrix.  Exact ones are tower values:
    # one integer matrix per square class, the ad matrices over one
    # denominator; a float algebra with a float matrix (one field) has the
    # stored constants over 1 as its ad matrices
    from aqslie.scalars import parse_scalar
    from floatcopy import float_algebra

    rational = weighted_heisenberg_4n1(2, [F(1, 3), F(3, 4)])[0]
    assert rational._tables()[1] == 6
    sqrt_h9 = weighted_heisenberg_4n1(2, [parse_scalar("sqrt(2)"), F(1, 2)])[0]
    matrix = lambda f: [[f(i, j) for j in range(9)] for i in range(9)]  # noqa: E731
    cases = {
        "rational-h9-sqrt2-matrix": (rational, matrix(lambda i, j: Ext.of_sqrt(2) * (i - j))),
        "float-h9-float-matrix": (float_algebra(rational), matrix(lambda i, j: 0.5 * i - j)),
        "sqrt-h9-rational-matrix": (sqrt_h9, matrix(lambda i, j: F(i - j, 3))),
    }
    classes = {"rational-h9-sqrt2-matrix": ([1, 2], 1, 6), "sqrt-h9-rational-matrix": ([1], 3, 1)}
    for name, (L, M) in cases.items():
        ads, (V,) = L.ad_values(M)
        if name in classes:
            assert all(isinstance(X, TowerOver) for X in [V, *ads]), name
            assert (sorted(V.parts), V.den, *{ad.den for ad in ads}) == classes[name], name
            assert V.mat() == M, name
        else:
            assert (V.N, V.den) == (M, 1) and {ad.den for ad in ads} == {1}, name
        for i in range(L.dim):
            got, want = ads[i].mat(), ad_matrix(L, L.basis_vector(i))
            assert [list(map(_bits, r)) for r in got] == [list(map(_bits, r)) for r in want], (name, i)


# ---------------------------------------------------------------------------
# differential tests: bracket and c against the structure-constant formula
# ---------------------------------------------------------------------------

fractions = st.builds(F, st.integers(-6, 6), st.integers(1, 5))


@st.composite
def tables(draw):
    """Random sparse structure constants (Jacobi not required here)."""
    n = draw(st.integers(1, 6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    table = {}
    for pair in chosen:
        ks = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
        table[pair] = {k: draw(fractions) for k in ks}
    return n, table


def vectors(n):
    basis = st.integers(0, n - 1).map(lambda i: [F(int(t == i)) for t in range(n)])
    return st.lists(fractions, min_size=n, max_size=n) | basis | st.just([F(0)] * n)


def ref_bracket(n, table, X, Y):
    out = [F(0)] * n
    for (i, j), coeffs in table.items():
        for k, v in coeffs.items():
            out[k] += v * (X[i] * Y[j] - X[j] * Y[i])
    return out


def _scaled(table, c):
    return {pair: {k: s_mul(c, v) for k, v in coeffs.items()} for pair, coeffs in table.items()}


@settings(max_examples=80, deadline=None)
@given(tables(), st.data())
def test_bracket_matches_fraction_reference(nt, data):
    n, table = nt
    X, Y = data.draw(vectors(n)), data.draw(vectors(n))
    expected = ref_bracket(n, table, X, Y)
    L = LieAlgebra.from_brackets(n, table, check=False)
    got = bracket(L, X, Y)
    assert got == expected and all(type(x) is F for x in got)
    # fallbacks: tower constants, plain ints in a vector, float mode
    r2 = Ext.of_sqrt(2)
    L2 = LieAlgebra.from_brackets(n, _scaled(table, r2), check=False)
    assert all(s_eq(a, s_mul(r2, b)) for a, b in zip(bracket(L2, X, Y), expected))
    ints = [int(x) if x.denominator == 1 else x for x in X]
    assert bracket(L, ints, Y) == expected
    Lf = LieAlgebra.from_brackets(n, _scaled(table, 1.0), mode="float", check=False)
    assert all(abs(a - float(b)) < 1e-9 for a, b in zip(bracket(Lf, X, Y), expected))


@settings(max_examples=40, deadline=None)
@given(tables())
def test_structure_constant_lookup_signs(nt):
    # entry (k, j) of ad_{b_i} is c_ij^k: the stored constant for i < j, its
    # negative for i > j, zero on the diagonal
    n, table = nt
    L = LieAlgebra.from_brackets(n, table, check=False)
    ads = [ad.mat() for ad in L.ad_values()[0]]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if i == j:
                    expected = F(0)
                elif i < j:
                    expected = table.get((i, j), {}).get(k, F(0))
                else:
                    expected = -table.get((j, i), {}).get(k, F(0))
                assert ads[i][k][j] == expected


def test_cached_tables_leave_equality_and_hash_alone():
    L1 = weighted_heisenberg_4n1(2, [1, 2])[0]
    L2 = weighted_heisenberg_4n1(2, [1, 2])[0]
    bracket(L1, L1.basis_vector(1), L1.basis_vector(3))
    L1.ad_values()
    assert L1 == L2 and hash(L1) == hash(L2)
    assert [f.name for f in fields(L1)] == ["dim", "brackets", "basis_names", "mode"]


# ---------------------------------------------------------------------------
# the one-loop table readers against the two-route bracket and ad matrix
# ---------------------------------------------------------------------------

def _reader_structures():
    """Float, tower, rational and conjugated structures on h9 and h13."""
    from aqslie.scalars import parse_scalar
    from floatcopy import float_structure

    h9 = weighted_heisenberg_4n1(2, [1, 2])[1][0]
    h13 = weighted_heisenberg_4n1(3, [1, 2, 3])[1][0]
    sqrt_weights = [parse_scalar(w) for w in "sqrt(2),1,3/2*sqrt(5)".split(",")]
    conj = lambda S, seed: conjugate_structure(  # noqa: E731
        S, random_unimodular(S.L.dim, random.Random(seed)))
    return {
        "f9c1": float_structure(conj(h9, 1)),
        "f13": float_structure(h13),
        "f13c2": float_structure(conj(h13, 2)),
        "sqrt-h13": weighted_heisenberg_4n1(3, sqrt_weights)[1][0],
        "h9c1": conj(h9, 1),
        "h13c2": conj(h13, 2),
    }


def test_table_readers_match_the_two_routes_on_the_structures():
    # the columns of phi and g, xi, eta and the basis: every bit, the sign of
    # a zero and ZERO against 0.0 show in the repr
    for name, S in _reader_structures().items():
        L = S.L
        vecs = [*zip(*S.phi_mat()), *zip(*S.g_mat()), S.xi_vec(), S.eta_row()]
        vecs = [list(v) for v in vecs] + [L.basis_vector(i) for i in range(L.dim)]
        for X in vecs:
            assert repr(_ad_numerators(L, X)) == repr(ad_matrix_routes(L, X)), name
            for Y in vecs[::3]:
                assert repr(bracket(L, X, Y)) == repr(bracket_routes(L, X, Y)), name


def test_nijenhuis_brackets_nothing(monkeypatch):
    # ad of each column of phi is one pass over the table on every field, not
    # n bracket columns
    from aqslie import acm, lie_core

    structures, calls = _reader_structures(), []

    def counted(*args):
        calls.append(args)
        return bracket(*args)

    monkeypatch.setattr(lie_core, "bracket", counted)
    monkeypatch.setattr(acm, "bracket", counted)
    for name in ("sqrt-h13", "f13"):
        S = structures[name]
        acm.nijenhuis(S.L, S.phi_mat())
    assert calls == []


def test_a_rational_algebra_builds_its_stored_constants_once(monkeypatch):
    # tower operands on a rational algebra read the stored constants, which
    # the algebra keeps beside its integer table instead of rebuilding them
    L, calls, table = weighted_heisenberg_2n1(2, [1, 2])[0], [], LieAlgebra.table
    monkeypatch.setattr(LieAlgebra, "table", lambda self: calls.append(self) or table(self))
    X = [Ext.of_sqrt(2) * k for k in range(L.dim)]
    Y = [F(1, k + 1) for k in range(L.dim)]
    for _ in range(4):
        assert repr(bracket(L, X, Y)) == repr(bracket_routes(L, X, Y))
        assert repr(bracket(L, Y, X)) == repr(bracket_routes(L, Y, X))
    assert len([c for c in calls if c is L]) <= 1


SQRT2 = Ext.of_sqrt(2)
exact_zeros = st.sampled_from([F(0), 0])
rationals = fractions | st.integers(-4, 4)
towers = st.builds(lambda a, b: a + b * SQRT2, fractions, fractions)
# near-zeros, the tolerance edge (1e-9 is zero, 1.5e-9 is not) and factors
# whose products land on it
floats = st.floats(-4, 4) | st.sampled_from(
    [0.0, -0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1.5e-9, 3.2e-5, -3.1e-5, 0.1, 2.5])
FIELDS = {  # constants, operand entries: each table meets operands of its own field
    "rational": (rationals, rationals | exact_zeros),
    "tower": (towers, towers | rationals | exact_zeros),
    "float": (floats, floats),
}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(FIELDS)), st.integers(2, 6), st.data())
def test_table_readers_match_the_two_routes_on_random_tables(field, n, data):
    constants, entries = FIELDS[field]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    table = {pair: data.draw(st.dictionaries(st.integers(0, n - 1), constants, max_size=3))
             for pair in data.draw(st.lists(st.sampled_from(pairs), unique=True))}
    mode = "float" if field == "float" else "exact"
    L = LieAlgebra.from_brackets(n, table, mode=mode, check=False)
    vector = st.lists(entries, min_size=n, max_size=n)
    all_ints = st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(
        lambda v: [float(x) for x in v] if field == "float" else v)
    X, Y = (data.draw(vector | all_ints) for _ in range(2))
    assert repr(bracket(L, X, Y)) == repr(bracket_routes(L, X, Y))
    assert repr(_ad_numerators(L, X)) == repr(ad_matrix_routes(L, X))
    as_field = float if field == "float" else int
    ints = [[as_field(x) for x in v] for v in ([1] * n, list(range(n)))]
    assert repr(bracket(L, *ints)) == repr(bracket_routes(L, *ints))
    assert repr(_ad_numerators(L, ints[1])) == repr(ad_matrix_routes(L, ints[1]))


# ---------------------------------------------------------------------------
# pair_brackets and the Nijenhuis kernel, one pass over the table each

def _pair_rows(L, X, pairs):
    """pair_brackets of the rows of the value X, and the bracket of each pair of
    its divided-back rows, both by repr."""
    from aqslie.lie_core import pair_brackets

    rows = X.mat()
    return (repr(pair_brackets(L, X, pairs).mat()),
            repr([bracket(L, rows[a], rows[b]) for a, b in pairs]))


def test_pair_brackets_are_the_brackets_of_the_rows_on_the_structures():
    # the columns of phi, the rows of g and xi: exact, tower and float values
    for name, S in _reader_structures().items():
        L = S.L
        (X,) = L.values([*map(list, zip(*S.phi_mat())), *S.g_mat(), S.xi_vec()])
        pairs = [(a, b) for a in range(2 * L.dim + 1) for b in range(2 * L.dim + 1)][::5]
        got, want = _pair_rows(L, X, pairs)
        assert got == want, name


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(FIELDS)), st.integers(2, 6), st.data())
def test_pair_brackets_are_the_brackets_of_the_rows_on_random_tables(field, n, data):
    constants, entries = FIELDS[field]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    table = {pair: data.draw(st.dictionaries(st.integers(0, n - 1), constants, max_size=3))
             for pair in data.draw(st.lists(st.sampled_from(pairs), unique=True))}
    L = LieAlgebra.from_brackets(n, table, mode="float" if field == "float" else "exact",
                                 check=False)
    rows = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=1, max_size=4))
    (X,) = L.values(rows)
    asked = data.draw(st.lists(st.tuples(*[st.integers(0, len(rows) - 1)] * 2), max_size=6))
    got, want = _pair_rows(L, X, asked)
    assert got == want


def _kernel_and_oracle(L, J):
    """repr of [J, J] from lie_core.nijenhuis_columns and from the four products
    of the oracle, J a matrix on L's field."""
    from aqslie.lie_core import nijenhuis_columns
    from oracles import nijenhuis_four_products

    ads, (V,) = L.ad_values(J)
    return repr(nijenhuis_columns(L, V).mat()), repr(nijenhuis_four_products(ads, V).mat())


@pytest.mark.parametrize("name", ["f9c1", "f13", "f13c2", "sqrt-h13", "h9c1", "h13c2",
                                  "sqrt-h13-companion2"])
def test_nijenhuis_kernel_matches_the_four_products_on_the_structures(name):
    # J = phi and J = g: exact values equal, floats by repr (bits, sign of zero)
    from aqslie.scalars import parse_scalar

    sqrt_weights = [parse_scalar(w) for w in "sqrt(2),1,3/2*sqrt(5)".split(",")]
    S = (weighted_heisenberg_4n1(3, sqrt_weights)[1][2] if name == "sqrt-h13-companion2"
         else _reader_structures()[name])
    for J in (S.phi_mat(), S.g_mat()):
        got, want = _kernel_and_oracle(S.L, J)
        assert got == want


SQRT3, SQRT6 = Ext.of_sqrt(3), Ext.of_sqrt(6)
# several square classes per entry, so no rational rescaling, and class products
# with g = gcd(r, s) > 1 (sqrt(6) sqrt(2) = 2 sqrt(3))
multi_towers = st.builds(lambda a, b, c, d: a + b * SQRT2 + c * SQRT3 + d * SQRT6,
                         fractions, fractions, fractions, fractions)
NIJENHUIS_FIELDS = {
    "rational": (rationals, rationals | exact_zeros),
    "tower": (multi_towers | towers, multi_towers | towers | rationals | exact_zeros),
    "float": (floats, floats),
}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(NIJENHUIS_FIELDS)), st.integers(1, 6), st.booleans(), st.data())
def test_nijenhuis_kernel_matches_the_four_products_on_random_tables(field, n, dense, data):
    # sparse and dense tables and J, near-zero and -0.0 float entries
    constants, entries = NIJENHUIS_FIELDS[field]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    targets = st.dictionaries(st.integers(0, n - 1), constants, min_size=n if dense else 0,
                              max_size=n if dense else 2)
    table = {pair: data.draw(targets) for pair in (pairs if dense else data.draw(
        st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])}
    L = LieAlgebra.from_brackets(n, table, mode="float" if field == "float" else "exact",
                                 check=False)
    zero = st.just(0.0 if field == "float" else F(0))
    J = data.draw(st.lists(st.lists(entries if dense else zero | entries, min_size=n,
                                    max_size=n), min_size=n, max_size=n))
    got, want = _kernel_and_oracle(L, J)
    assert got == want


def test_nijenhuis_multiplies_the_nonzero_terms_only(monkeypatch):
    # [phi, phi] makes at most one product per nonzero constant and nonzero of
    # phi: 18 against 6 x 12 = 72 on the weight-basis h13 and on the third
    # square-root companion (three square classes in the table), as the four
    # products made; 34,056 against 621 x 151 = 93,771 on the conjugated h13,
    # where the four products made 43,758
    from aqslie import tower
    from aqslie.acm import nijenhuis_phi
    from aqslie.scalars import parse_scalar

    count, real = [0], tower._rowwise  # the class-pair product's one integer product

    def counted(rows, nz, width, zero, every=False):  # each nonzero of a row times its index
        for row in rows:
            count[0] += sum(len(nz[j]) for j in range(len(nz)) if every or row[j])
        return real(rows, nz, width, zero, every)

    monkeypatch.setattr(tower, "_rowwise", counted)
    sqrt_weights = [parse_scalar(w) for w in "sqrt(2),1,3/2*sqrt(5)".split(",")]
    h13 = weighted_heisenberg_4n1(3, [1, 2, 3])[1][0]
    cases = {"h13": (h13, 18), "sqrt-h13-companion2": (weighted_heisenberg_4n1(
        3, sqrt_weights)[1][2], 18), "h13c": (conjugate_structure(
            h13, random_unimodular(13, random.Random(1))), None)}
    for name, (S, want) in cases.items():
        count[0] = 0
        nijenhuis_phi(S)
        constants = sum(len(entries) for _, entries in S.L.brackets)
        nonzeros = sum(1 for row in S.phi for x in row if x)
        assert 0 < count[0] <= constants * nonzeros, name
        assert want is None or count[0] == want, name


# ---------------------------------------------------------------------------
# d eta and the basis pair brackets read off the table, against the ad stack

def _table_reads_and_ad_stack(L, eta):
    """repr of d eta (``exterior.d_of_covector``) and of the brackets of every basis
    pair, both orders and the diagonal (``lie_core.basis_brackets``), and of the
    same off the stacked ad matrices, eta a row on L's field."""
    from aqslie.exterior import d_of_covector
    from aqslie.lie_core import basis_brackets
    from oracles import ad_stack_d_eta, ad_stack_pair_brackets

    pairs = [(a, b) for a in range(L.dim) for b in range(L.dim)]
    ads, (E,) = L.ad_values([eta])
    return ((repr(d_of_covector(L, E).mat()), repr(basis_brackets(L, pairs).mat())),
            (repr(ad_stack_d_eta(ads, E).mat()), repr(ad_stack_pair_brackets(ads, pairs).mat())))


def test_table_reads_of_d_eta_and_the_pair_brackets_match_the_ad_stack_on_the_structures():
    # eta, xi and a column of phi as the covector: rational, tower and float values
    for name, S in _reader_structures().items():
        for eta in (S.eta_row(), S.xi_vec(), [row[1] for row in S.phi_mat()]):
            got, want = _table_reads_and_ad_stack(S.L, eta)
            assert got == want, name


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(NIJENHUIS_FIELDS)), st.integers(1, 6), st.data())
def test_table_reads_of_d_eta_and_the_pair_brackets_match_the_ad_stack_on_random_tables(
        field, n, data):
    # rational, multi-class tower and float tables, sparse or with every pair, and
    # eta with exact zeros, -0.0 and near-zeros; a float table is built under a finer
    # tolerance, so it keeps near-zero constants that the readers must not skip
    constants, entries = NIJENHUIS_FIELDS[field]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    table = {pair: data.draw(st.dictionaries(st.integers(0, n - 1), constants, max_size=n))
             for pair in data.draw(st.lists(st.sampled_from(pairs), unique=True)
                                   if pairs else st.just([]))}
    if field == "float":
        tolerance = get_tolerance()
        set_tolerance(1e-15)
        try:
            L = LieAlgebra.from_brackets(n, table, mode="float", check=False)
        finally:
            set_tolerance(tolerance)
    else:
        L = LieAlgebra.from_brackets(n, table, check=False)
    eta = data.draw(st.lists(entries, min_size=n, max_size=n))
    got, want = _table_reads_and_ad_stack(L, eta)
    assert got == want


def test_a_float_d_eta_skips_near_zero_eta_keeps_near_zero_constants_and_signs_zeros():
    # c_12^1 = 1e-12 is below the tolerance and stays; eta_3 = 1e-12 is skipped;
    # an entry with no term, and the diagonal, read -0.0 as -eta([b_i, b_j]) does
    from aqslie.exterior import d_of_covector

    tolerance = get_tolerance()
    set_tolerance(1e-15)
    try:
        L = LieAlgebra.from_brackets(
            3, {(0, 1): {0: 1e-12, 2: 2.0}, (0, 2): {2: 3.0}}, mode="float", check=False)
    finally:
        set_tolerance(tolerance)
    (E,) = L.values([[0.5, 0.0, 1e-12]])
    assert repr(d_of_covector(L, E).mat()) == repr(
        [[-0.0, -5e-13, -0.0], [5e-13, -0.0, -0.0], [-0.0, -0.0, -0.0]])
    got, want = _table_reads_and_ad_stack(L, [0.5, 0.0, 1e-12])
    assert got == want
