"""Factories: weighted Heisenberg algebras with their standard structures,
Kahler Lie algebras, and 1-dimensional central extensions by 2-cocycles.

Weighted Heisenberg conventions (basis order: xi first, then tau_1..tau_4n):

    h^{4n+1}_w:  [tau_r, tau_{3n+r}] = [tau_{n+r}, tau_{2n+r}] = 2 w_r xi
    h^{2n+1}_w:  [tau_r, tau_{n+r}] = 2 w_r xi

and for (i,j,k) an even permutation of (1,2,3)

    phi_i = sum_r (th_r (x) tau_{in+r} - th_{in+r} (x) tau_r
                   + th_{jn+r} (x) tau_{kn+r} - th_{kn+r} (x) tau_{jn+r}).

Both families come from one builder, and every phi, like the standard
Kahler J, is a rotation of basis pairs (``_rotation``).

Zero weights are legal; downstream maximal-rank operations reject them with
a precise error rather than the constructor.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .acm import AcmStructure, nijenhuis
from .errors import DimensionMismatch, PreconditionError
from .exterior import KForm, bilinear_from_form, ce_d
from .lie_core import LieAlgebra
from .linalg import (
    Mat,
    identity,
    is_positive_definite,
    mat_eq,
    mat_mul,
    mat_scale,
    transpose,
    vec_is_zero,
    zeros,
)
from .scalars import ZERO, coerce, s_add, s_is_zero, s_mul, s_neg, s_sub, units


def _doubled_weights(n: int, weights) -> list:
    """[2 w_1, ..., 2 w_n], the bracket constants, after checking n."""
    if n < 1:
        raise PreconditionError("n must be positive")
    w = [coerce(x) for x in weights]
    if len(w) != n:
        raise DimensionMismatch(f"expected {n} weights, got {len(w)}")
    return [s_mul(Fraction(2), x) for x in w]


def _rotation(dim: int, pairs, floats: bool = False) -> Mat:
    """The dim x dim matrix mapping b_a to s b_b and b_b to -s b_a for each (a, b, s)
    of pairs (s an int), every other basis vector to zero; of floats with floats."""
    R, one = zeros(dim, dim, floats), units(floats)[1]
    for a, b, s in pairs:
        R[b][a], R[a][b] = s * one, -s * one
    return R


def _heisenberg(n: int, weights, blocks, phis) -> tuple[LieAlgebra, tuple]:
    """h_w on xi, tau_1..tau_{2 len(blocks) n}, [tau_{a n+r}, tau_{b n+r}] = 2 w_r xi
    for (a, b) in blocks, with one structure (phi, xi, eta = xi^flat, I) per
    entry of phis: phi rotates tau_{a n+r} to tau_{b n+r} for (a, b) in it.
    Float weights make a float-mode algebra with float phi, xi and g."""
    dim, doubled = 2 * len(blocks) * n + 1, _doubled_weights(n, weights)
    floats = any(isinstance(c, float) for c in doubled)
    table = {(a * n + r, b * n + r): {0: c}
             for r, c in enumerate(doubled, start=1) if not s_is_zero(c) for a, b in blocks}
    L = LieAlgebra.from_brackets(dim, table, ["xi"] + [f"tau{l}" for l in range(1, dim)],
                                 "float" if floats else "exact")
    xi = L.basis_vector(0)
    rotations = [_rotation(dim, [(a * n + r, b * n + r, 1) for a, b in pairs
                                 for r in range(1, n + 1)], floats) for pairs in phis]
    return L, tuple(AcmStructure.make(L, phi, xi, xi, identity(dim, floats)) for phi in rotations)


def weighted_heisenberg_4n1(n: int, weights) -> tuple[LieAlgebra, tuple]:
    """h^{4n+1}_w with its three structures (phi_1, phi_2, phi_3) sharing
    (xi, eta, g); phi_1, phi_2 are anti-quasi-Sasakian and phi_3 is
    quasi-Sasakian for nonzero weights."""
    return _heisenberg(n, weights, ((0, 3), (1, 2)),
                       [((0, i), (j, k)) for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2))])


def weighted_heisenberg_2n1(n: int, weights) -> tuple[LieAlgebra, AcmStructure]:
    """h^{2n+1}_w with its standard quasi-Sasakian structure
    phi = sum_r (th_r (x) tau_{n+r} - th_{n+r} (x) tau_r)."""
    L, (S,) = _heisenberg(n, weights, ((0, 1),), [((0, 1),)])
    return L, S


def abelian(dim: int) -> LieAlgebra:
    return LieAlgebra.from_brackets(dim, {}, [f"e{i+1}" for i in range(dim)])


# ---------------------------------------------------------------------------
# Kahler Lie algebras and central extensions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KahlerLieAlgebra:
    L: LieAlgebra
    J: tuple
    k: tuple

    def J_mat(self) -> Mat:
        return [list(r) for r in self.J]

    def k_mat(self) -> Mat:
        return [list(r) for r in self.k]

    def omega(self) -> KForm:
        """Fundamental 2-form Omega = k(., J .)."""
        from .exterior import form_from_bilinear

        return form_from_bilinear(mat_mul(self.k_mat(), self.J_mat()))


def kahler(L: LieAlgebra, J: Mat, k: Mat) -> KahlerLieAlgebra:
    """Validate J^2 = -I, N_J = 0, k Hermitian positive definite, d Omega = 0."""
    n = L.dim
    H = KahlerLieAlgebra(
        L, tuple(tuple(r) for r in J), tuple(tuple(r) for r in k)
    )
    if not mat_eq(mat_mul(J, J), mat_scale(identity(n, L.floats), -1)):
        raise PreconditionError("J^2 != -I")
    if not is_positive_definite(k):
        raise PreconditionError("k is not positive definite")
    # k(J X, J Y) = k(X, Y) on basis pairs: J^T k J = k
    if not mat_eq(mat_mul(transpose(J), mat_mul(k, J)), k):
        raise PreconditionError("k is not Hermitian for J")
    for (i, j), nij in nijenhuis(L, J).items():
        if not vec_is_zero(nij):
            raise PreconditionError(f"J is not integrable: N_J(e{i+1},e{j+1}) != 0")
    if not ce_d(L, H.omega()).is_zero():
        raise PreconditionError("fundamental form is not closed")
    return H


def standard_kahler(m: int) -> KahlerLieAlgebra:
    """Abelian R^{2m} with J e_r = e_{m+r} and the flat metric."""
    return kahler(abelian(2 * m), _rotation(2 * m, [(r, m + r, 1) for r in range(m)]),
                  identity(2 * m))


def invariance_type(H: KahlerLieAlgebra, w: KForm) -> tuple[str, KForm, KForm]:
    """Classify w against its J-pullback w(J ., J .), the Gram product J^T W J:
    returns (tag, invariant part, anti-invariant part), (W +- J^T W J) / 2 on
    the upper triangle, with w = inv + anti exactly."""
    n, J = H.L.dim, H.J_mat()
    if w.degree != 2 or w.dim != n:
        raise DimensionMismatch("need a 2-form on the Kahler algebra")
    W = bilinear_from_form(w, H.L.floats)
    JWJ = mat_mul(transpose(J), mat_mul(W, J))
    half = Fraction(1, 2)
    inv, anti = (KForm.make(2, n, {(i, j): s_mul(half, op(W[i][j], JWJ[i][j]))
                                   for i in range(n) for j in range(i + 1, n)})
                 for op in (s_add, s_sub))
    # the zero form is both; it is reported as invariant
    tag = "invariant" if anti.is_zero() else "anti-invariant" if inv.is_zero() else "neither"
    return tag, inv, anti


@dataclass(frozen=True)
class Cocycle:
    form: KForm
    invariance: str

    @staticmethod
    def on(H: KahlerLieAlgebra, w: KForm) -> "Cocycle":
        if not ce_d(H.L, w).is_zero():
            raise PreconditionError("2-cocycle condition d w = 0 fails")
        tag, _, _ = invariance_type(H, w)
        return Cocycle(w, tag)


def central_extension(
    H: KahlerLieAlgebra, cocycle: Cocycle | KForm
) -> tuple[LieAlgebra, AcmStructure]:
    """g = h (+) R xi with [X, Y] = [X, Y]_h - w(X, Y) xi, [X, xi] = 0.

    Basis order (h-basis..., xi last).  The structure extends (J, k) with
    phi xi = 0, eta dual to xi, xi unit and orthogonal to h; then
    d eta = w on h.
    """
    if isinstance(cocycle, KForm):
        cocycle = Cocycle.on(H, cocycle)
    w = cocycle.form
    m = H.L.dim
    dim = m + 1
    table = H.L.table()
    for (a, b), c in w.coeffs:
        row = table.setdefault((a, b), {})
        row[m] = s_add(row.get(m, ZERO), s_neg(c))
    names = list(H.L.basis_names) + ["xi"]
    L = LieAlgebra.from_brackets(dim, table, names, H.L.mode)
    # (J, k) on h, phi xi = 0, xi unit and orthogonal to h
    zero, one = units(L.floats)
    phi = [list(row) + [zero] for row in H.J] + [[zero] * dim]
    g = [list(row) + [zero] for row in H.k] + [[zero] * m + [one]]
    S = AcmStructure.make(L, phi, L.basis_vector(m), L.basis_vector(m), g)
    return L, S


# ---------------------------------------------------------------------------
# fixed models
# ---------------------------------------------------------------------------

def su2() -> LieAlgebra:
    """su(2) with the cyclic convention [b1,b2]=b3, [b2,b3]=b1, [b3,b1]=b2."""
    return LieAlgebra.from_brackets(
        3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}}, ["b1", "b2", "b3"]
    )


def su3() -> LieAlgebra:
    """su(3) in an integer basis, shipped as package data.

    Normalization (traceless anti-Hermitian 3x3 matrices):
    h1 = i(E11 - E22), h2 = i(E22 - E33), u_jk = E_jk - E_kj,
    v_jk = i(E_jk + E_kj) for jk in {12, 23, 13}; basis order
    (h1, h2, u12, v12, u23, v23, u13, v13).  The diagonal torus is
    span{h1, h2} (file indices 1, 2); all structure constants are integers.
    """
    from . import io as aqio

    text = resources.files("aqslie").joinpath("data/su3.json").read_text("utf-8")
    return aqio.algebra_from_json(json.loads(text))


def su2_plus_abelian(extra: int = 2) -> LieAlgebra:
    """su(2) (+) R^extra; a non-nilpotent negative control."""
    base = su2()
    dim = 3 + extra
    table = {key: dict(entries) for key, entries in base.brackets}
    names = list(base.basis_names) + [f"z{i+1}" for i in range(extra)]
    return LieAlgebra.from_brackets(dim, table, names)


def shipped_algebras() -> dict:
    """Deterministic registry of the models used in tests and reports."""
    reg: dict = {}
    reg["abelian5"] = abelian(5)
    reg["h3"] = weighted_heisenberg_2n1(1, [1])[0]
    reg["h5_qs_1_3"] = weighted_heisenberg_2n1(2, [1, 3])[0]
    reg["h5_1"] = weighted_heisenberg_4n1(1, [1])[0]
    reg["h9_1_2"] = weighted_heisenberg_4n1(2, [1, 2])[0]
    reg["h13_1_2_3"] = weighted_heisenberg_4n1(3, [1, 2, 3])[0]
    reg["su2"] = su2()
    reg["su3"] = su3()
    return reg


def shipped_aqs_structures() -> dict:
    """Maximal-rank anti-quasi-Sasakian structures used across the suite."""
    out = {}
    for name, n, w in (
        ("h5_1", 1, [1]),
        ("h5_3", 1, [3]),
        ("h9_1_2", 2, [1, 2]),
        ("h9_1_1", 2, [1, 1]),
        ("h13_1_2_3", 3, [1, 2, 3]),
    ):
        _, (s1, s2, _) = weighted_heisenberg_4n1(n, w)
        out[f"{name}_phi1"] = s1
        out[f"{name}_phi2"] = s2
    return out
