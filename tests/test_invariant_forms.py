"""Reductive splits and closed invariant 2-forms: moment elements, (1,1)."""

import functools
import random
import re
from fractions import Fraction as F
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqslie.constructors import (
    abelian,
    invariance_type,
    standard_kahler,
    su2,
    su3,
    weighted_heisenberg_4n1,
)
from aqslie.errors import NoSolution, NotCompactSemisimple, PreconditionError
from aqslie.exterior import KForm, bilinear_from_form, form_scale
from aqslie.invariant_forms import (
    centralizer_of_torus,
    extension_by_zero_derivation_check,
    invariant_closed_2forms,
    moment_element,
    reductive_split,
    synthesize_j_dim2,
    type_11_check,
    verify_invariant_complex_structure,
)
from aqslie.lie_core import derivations, in_basis, killing_form
from aqslie.linalg import (
    Subspace,
    _flat,
    inverse,
    mat_mul,
    random_unimodular,
    rank,
    transpose,
    vec_is_zero,
)
from aqslie.scalars import get_tolerance, s_eq, s_str
from floatcopy import float_algebra
from oracles import evaluate, form_add, form_eq, form_sub, invariant_closed_2forms_by_equations


def su2_split():
    g = su2()
    S = Subspace.from_vectors(3, [g.basis_vector(2)])
    return g, reductive_split(g, centralizer_of_torus(g, S))


@functools.cache
def su3_split():
    g = su3()
    S = Subspace.from_vectors(8, [g.basis_vector(0), g.basis_vector(1)])
    return g, reductive_split(g, centralizer_of_torus(g, S))


def canonical_su3_j():
    # J maps u_alpha -> v_alpha on each root pair of m = (u12 v12 u23 v23 u13 v13)
    J = [[F(0)] * 6 for _ in range(6)]
    for p in range(3):
        J[2 * p + 1][2 * p] = F(1)
        J[2 * p][2 * p + 1] = F(-1)
    return J


def test_centralizer_of_torus():
    g = su2()
    S = Subspace.from_vectors(3, [g.basis_vector(2)])
    k = centralizer_of_torus(g, S)
    assert k.dim == 1 and k.contains(g.basis_vector(2))
    g3 = su3()
    S3 = Subspace.from_vectors(8, [g3.basis_vector(0), g3.basis_vector(1)])
    k3 = centralizer_of_torus(g3, S3)
    assert k3.dim == 2
    # abelian: centralizer is everything
    ab = abelian(4)
    kab = centralizer_of_torus(ab, Subspace.from_vectors(4, [ab.basis_vector(0)]))
    assert kab.dim == 4


def test_centralizer_contains_the_torus_by_one_rank(monkeypatch):
    import aqslie.invariant_forms as inv
    from aqslie.errors import InternalContradiction

    ranks, real = [], inv.rank
    monkeypatch.setattr(inv, "rank", lambda M: ranks.append(len(M)) or real(M))
    g3 = su3()
    k3 = centralizer_of_torus(g3, Subspace.from_vectors(8, [g3.basis_vector(i) for i in (0, 1)]))
    assert k3.dim == 2 and ranks == [4]
    # a kernel that misses the torus is a contradiction, named as before
    monkeypatch.setattr(inv, "nullspace", lambda M, n: [g3.basis_vector(2), g3.basis_vector(3)])
    with pytest.raises(InternalContradiction, match="^centralizer does not contain the torus$"):
        centralizer_of_torus(g3, Subspace.from_vectors(8, [g3.basis_vector(0)]))


def test_centralizer_rejects_non_abelian_torus():
    g = su2()
    S = Subspace.from_vectors(3, [g.basis_vector(0), g.basis_vector(1)])
    with pytest.raises(PreconditionError):
        centralizer_of_torus(g, S)


def test_reductive_split_dimensions():
    _, R2 = su2_split()
    assert R2.k.dim == 1 and R2.m.dim == 2
    _, R3 = su3_split()
    assert R3.k.dim == 2 and R3.m.dim == 6


def test_reductive_split_rejects_a_k_that_is_not_a_subalgebra():
    # k = span(b1, b2) in su(2): m = R b3 and [b1, b2] = b3 leaves k
    g = su2()
    k = Subspace.from_vectors(3, [g.basis_vector(0), g.basis_vector(1)])
    with pytest.raises(PreconditionError, match=re.escape("[k, k] is not contained in k")):
        reductive_split(g, k)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_reductive_split_certifies_k_m_in_m(mode, monkeypatch):
    # a k part of [k_1, X_1] in the split's table fails the certificate: a
    # contradiction in exact arithmetic, a tolerance failure for floats
    import aqslie.invariant_forms as invariant_forms
    from aqslie.errors import InternalContradiction, ToleranceExceeded
    from aqslie.lie_core import LieAlgebra

    def bumped(*args):
        L = in_basis(*args)
        table = L.table()
        table.setdefault((0, 2), {})[0] = F(1, 7) if mode == "exact" else 1 / 7
        return LieAlgebra.from_brackets(L.dim, table, mode=L.mode, check=False)

    monkeypatch.setattr(invariant_forms, "in_basis", bumped)
    g = su3() if mode == "exact" else float_algebra(su3())
    error = InternalContradiction if mode == "exact" else ToleranceExceeded
    with pytest.raises(error, match=re.escape("[k, m] is not contained in m")):
        split_on(g, [g.basis_vector(0), g.basis_vector(1)])


def test_reductive_split_rejects_non_compact():
    h5 = weighted_heisenberg_4n1(1, [1])[0]
    with pytest.raises(NotCompactSemisimple):
        reductive_split(h5, Subspace.from_vectors(5, [h5.basis_vector(0)]))


def test_solution_space_dimensions():
    _, R2 = su2_split()
    assert len(invariant_closed_2forms(R2)) == 1
    _, R3 = su3_split()
    sols = invariant_closed_2forms(R3)
    assert len(sols) == 2
    assert len(R3.center) == 2  # = dim z(k)
    # k = g means m = 0: no forms
    g = su2()
    k_full = Subspace.from_vectors(3, [g.basis_vector(i) for i in range(3)])
    R_full = reductive_split(g, k_full)
    assert R_full.m.dim == 0
    assert invariant_closed_2forms(R_full) == []


def split_on(g, torus):
    """The reductive split of g at the centralizer of the torus spanned by
    the given vectors."""
    return reductive_split(g, centralizer_of_torus(g, Subspace.from_vectors(g.dim, torus)))


def conjugated_su3():
    """su3 in the basis of the columns of a unimodular Q, where k (+) m is no
    permutation of the basis."""
    Q = random_unimodular(8, random.Random(5))
    return in_basis(su3(), Q, inverse(Q))


# the tori of the CLI's --torus 3 on su2 and --torus 1, 1,2 and 2 on su3, and
# h1 + h2 on su3, which gives k another basis; and the torus h1, h2 of su3 in
# the conjugated basis, Q^-1 e_1 and Q^-1 e_2
TORI = {
    "su2-t3": (su2, [[0, 0, 1]]),
    "su3-t1": (su3, [[1] + [0] * 7]),
    "su3-t12": (su3, [[1] + [0] * 7, [0, 1] + [0] * 6]),
    "su3-t2": (su3, [[0, 1] + [0] * 6]),
    "su3-h1+h2": (su3, [[1, 1] + [0] * 6]),
    "su3-conjugated": (conjugated_su3, transpose(
        inverse(random_unimodular(8, random.Random(5))))[:2]),
}


@pytest.mark.parametrize("name", sorted(TORI))
def test_closed_invariant_forms_are_the_relative_cocycles(name):
    # the kernel of d on the pairs of m in the split basis is the solution
    # space of the invariance and closedness equations, basis form for form
    make, torus = TORI[name]
    R = split_on(make(), [list(map(F, v)) for v in torus])
    forms = invariant_closed_2forms(R)
    assert len(forms) == R.k.dim and forms == invariant_closed_2forms_by_equations(R)


def test_float_closed_invariant_forms_match_the_exact_ones():
    _, torus = TORI["su3-t12"]
    exact = invariant_closed_2forms(su3_split()[1])
    floats = invariant_closed_2forms(split_on(float_algebra(su3()), [list(map(float, v))
                                                                     for v in torus]))
    assert len(floats) == len(exact) == 2
    for w, v in zip(floats, exact):
        assert all(abs(w.coeff(p) - float(v.coeff(p))) <= get_tolerance()
                   for p in combinations(range(6), 2))


def test_moment_element_su2():
    g, R = su2_split()
    (w,) = invariant_closed_2forms(R)
    Z = moment_element(R, w)
    # w = c * theta1 ^ theta2 and [b1, b2] = b3, Kill = -2 I:
    # w(b1, b2) = Kill(b3, Z) = -2 z3, so Z = -(c/2) b3
    c = w.coeff((0, 1))
    assert s_eq(Z[2], F(-1, 2) * c)
    assert vec_is_zero(Z[:2])


def test_moment_zero_for_zero_form():
    _, R = su2_split()
    Z = moment_element(R, KForm.make(2, 2, {}))
    assert vec_is_zero(Z)


def test_moment_elements_span_center_su3():
    _, R3 = su3_split()
    sols = invariant_closed_2forms(R3)
    Zs = [moment_element(R3, w) for w in sols]
    assert rank([list(z) for z in Zs]) == 2  # injective, image spans z(k)


def test_moment_round_trip_reconstruction():
    # reconstructing w from Z via Kill([.,.], Z) reproduces w exactly
    from aqslie.lie_core import bracket, killing_form
    from aqslie.linalg import bilinear

    for make_split in (su2_split, su3_split):
        g, R = make_split()
        B = [list(r) for r in killing_form(g).matrix]
        for w in invariant_closed_2forms(R):
            Z = moment_element(R, w)
            m_cols = R.m_cols()
            for a in range(R.m.dim):
                for b in range(a + 1, R.m.dim):
                    got = bilinear(bracket(g, m_cols[a], m_cols[b]), B, Z)
                    assert s_eq(got, w.coeff((a, b)))


def test_moment_no_solution_outside_space():
    _, R3 = su3_split()
    # theta1^theta2 on m is ad(k)-invariant-violating; no moment element
    w_bad = KForm.make(2, 6, {(0, 1): F(1), (2, 3): F(-5)})
    with pytest.raises(NoSolution):
        moment_element(R3, w_bad)


def test_type_11_su2():
    _, R = su2_split()
    sols = invariant_closed_2forms(R)
    cands = synthesize_j_dim2(R)
    assert len(cands) == 2  # exhaustive +-J enumeration
    for J in cands:
        rep = type_11_check(R, sols, J)
        assert rep.j_ok and rep.invariant and rep.anti_projection_zero


def test_type_11_su3_canonical_j():
    _, R3 = su3_split()
    J = canonical_su3_j()
    assert verify_invariant_complex_structure(R3, J) == []
    sols = invariant_closed_2forms(R3)
    rep = type_11_check(R3, sols, J)
    assert rep.j_ok and rep.invariant and rep.anti_projection_zero


def test_type_11_zero_form_trivially_passes():
    _, R = su2_split()
    J = synthesize_j_dim2(R)[0]
    rep = type_11_check(R, [KForm.make(2, 2, {})], J)
    assert rep.j_ok and rep.invariant and rep.anti_projection_zero


def test_type_11_rejects_bad_j():
    _, R3 = su3_split()
    J_bad = [[F(0)] * 6 for _ in range(6)]
    rep = type_11_check(R3, invariant_closed_2forms(R3), J_bad)
    assert not rep.j_ok and rep.j_failures == ["J_squared", "integrability"]


def test_su3_flag_manifold_has_six_integrable_sign_choices():
    # J = +-1 on each root pair is equivariant; the two cyclic sign choices
    # are the non-integrable invariant almost complex structures of SU(3)/T^2
    _, R3 = su3_split()
    failing = {}
    for signs in product((1, -1), repeat=3):
        J = [[F(0)] * 6 for _ in range(6)]
        for p, s in enumerate(signs):
            J[2 * p + 1][2 * p], J[2 * p][2 * p + 1] = F(s), F(-s)
        failures = verify_invariant_complex_structure(R3, J)
        if failures:
            failing[signs] = failures
    assert failing == {(1, 1, -1): ["integrability"], (-1, -1, 1): ["integrability"]}
    # pairing u12 with u23 (and v12 with v23) is not ad(k)-equivariant
    J = [[F(0)] * 6 for _ in range(6)]
    for a, b in ((0, 2), (1, 3), (4, 5)):
        J[b][a], J[a][b] = F(1), F(-1)
    assert verify_invariant_complex_structure(R3, J) == ["equivariance"]


def test_extension_by_zero_derivation():
    for make_split in (su2_split, su3_split):
        _, R = make_split()
        for w in invariant_closed_2forms(R):
            Z = moment_element(R, w)
            assert extension_by_zero_derivation_check(R, w, Z)


def test_extension_by_zero_rejects_a_perturbed_phi(monkeypatch):
    import aqslie.invariant_forms as invariant_forms

    g, R = su3_split()
    w = invariant_closed_2forms(R)[0]
    Z = moment_element(R, w)
    B, Cm = [list(r) for r in killing_form(g).matrix], [list(r) for r in R.coords[R.k.dim:]]

    def phi_of(form):  # Kill(phi X, Y) = w_ext(X, Y)
        Omega = mat_mul(transpose(Cm), mat_mul(bilinear_from_form(form), Cm))
        return transpose(mat_mul(Omega, inverse(B)))

    for a, b in ((0, 1), (0, 3), (2, 5)):
        bumped = form_add(w, KForm.make(2, w.dim, {(a, b): F(1, 7)}))
        assert not derivations(g).contains(_flat(phi_of(bumped)))
        assert not extension_by_zero_derivation_check(R, bumped, Z)
        # read ad_Z as phi itself: the n Leibniz identities alone decide
        with monkeypatch.context() as patch:
            patch.setattr(invariant_forms, "ad_matrix", lambda g, phi: phi)
            assert extension_by_zero_derivation_check(R, w, phi_of(w))
            assert not extension_by_zero_derivation_check(R, bumped, phi_of(bumped))


def test_synthesize_requires_dim2():
    _, R3 = su3_split()
    with pytest.raises(PreconditionError):
        synthesize_j_dim2(R3)


# ---------------------------------------------------------------------------
# the Gram products J^T W J against the determinant minors of evaluate
# ---------------------------------------------------------------------------

def pulled_back(w, J):
    """w(J ., J .) by evaluate, the minor oracle."""
    cols = transpose(J)
    pairs = combinations(range(w.dim), 2)
    return KForm.make(2, w.dim, {(a, b): evaluate(w, [cols[a], cols[b]]) for a, b in pairs})


@st.composite
def two_forms(draw, dim, J):
    """A random rational 2-form, or its J-invariant or J-anti-invariant part."""
    pairs = list(combinations(range(dim), 2))
    coeffs = draw(st.lists(st.builds(F, st.integers(-9, 9), st.integers(1, 5)),
                           min_size=len(pairs), max_size=len(pairs)))
    w = KForm.make(2, dim, dict(zip(pairs, coeffs)))
    part = draw(st.sampled_from([None, form_add, form_sub]))
    return w if part is None else form_scale(part(w, pulled_back(w, J)), F(1, 2))


STANDARD_KAHLER_2 = standard_kahler(2)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(two_forms(4, STANDARD_KAHLER_2.J_mat()))
def test_invariance_type_matches_the_minor_oracle(w):
    P = pulled_back(w, STANDARD_KAHLER_2.J_mat())
    half = F(1, 2)
    want_inv, want_anti = form_scale(form_add(w, P), half), form_scale(form_sub(w, P), half)
    tag, inv, anti = invariance_type(STANDARD_KAHLER_2, w)
    assert form_eq(inv, want_inv) and form_eq(anti, want_anti)
    want = ("invariant" if want_anti.is_zero()
            else "anti-invariant" if want_inv.is_zero() else "neither")
    assert tag == want


@settings(derandomize=True, max_examples=20, deadline=None)
@given(two_forms(6, canonical_su3_j()))
def test_type_11_check_matches_the_minor_oracle(w):
    _, R = su3_split()
    J = canonical_su3_j()
    rep = type_11_check(R, [w], J)
    assert rep.j_ok
    assert rep.invariant == rep.anti_projection_zero == form_eq(pulled_back(w, J), w)
