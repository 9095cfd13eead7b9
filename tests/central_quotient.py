"""A central quotient of a Lie algebra, used by the lie_core tests.

``quotient_by_center_line`` splits an algebra along a complement D of a
central line R xi and certifies the 2-cocycle of the splitting exactly.  No
module of the package calls it: the classifier tests [g, g] inside R xi by
a rank and builds no quotient, so it lives beside the tests that exercise
the splitting and its round trip through ``central_extension``.
"""

from __future__ import annotations

from dataclasses import dataclass

from aqslie.errors import PreconditionError
from aqslie.lie_core import BracketTable, LieAlgebra, ad_matrix, bracket
from aqslie.linalg import (
    Subspace,
    Vec,
    inverse,
    mat_eq,
    mat_mul,
    mat_sub,
    transpose,
    vec_is_zero,
    zeros,
)
from aqslie.scalars import ONE, s_is_zero, s_neg, s_sub


@dataclass(frozen=True)
class CentralQuotient:
    algebra: LieAlgebra
    # cocycle omega on the complement coordinates: [X,Y] = [X,Y]_D - omega(X,Y) xi
    cocycle: tuple
    complement_to_ambient: tuple  # columns: images of quotient basis in g
    xi: tuple


def quotient_by_center_line(L: LieAlgebra, xi: Vec, D: Subspace) -> CentralQuotient:
    """Lie algebra on a complement D of a central line, with the 2-cocycle
    splitting [X,Y] = [X,Y]_D - omega(X,Y) xi certified exactly."""
    n = L.dim
    if D.dim != n - 1:
        raise PreconditionError("complement must have codimension 1")
    if not all(map(vec_is_zero, ad_matrix(L, list(xi)))):
        raise PreconditionError("xi is not central")
    if D.contains(list(xi)):
        raise PreconditionError("xi lies in the complement")
    cols = [list(b) for b in D.basis] + [list(xi)]
    Tinv = inverse(transpose(cols))  # columns d_1..d_{n-1}, xi
    m = n - 1
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    # W[p]: the coordinates of [d_a, d_b] in the basis d_1..d_{n-1}, xi, for pair p
    brackets = [bracket(L, cols[a], cols[b]) for a, b in pairs]
    W = transpose(mat_mul(Tinv, transpose(brackets)))
    table: BracketTable = {}
    omega = zeros(m, m)
    for (a, b), w in zip(pairs, W):
        coeffs = {k: w[k] for k in range(m) if not s_is_zero(w[k])}
        if coeffs:
            table[(a, b)] = coeffs
        omega[a][b] = s_neg(w[m])
        omega[b][a] = w[m]
    names = []
    for a, col in enumerate(cols[:m]):
        hits = [i for i in range(n) if not s_is_zero(col[i])]
        unit = len(hits) == 1 and s_is_zero(s_sub(col[hits[0]], ONE))
        names.append(L.basis_names[hits[0]] if unit else f"d{a+1}")
    quotient = LieAlgebra.from_brackets(m, table, names, L.mode, check=True)
    # certificate, pairs as columns: [d_a, d_b] = incl([.,.]_D) - omega_ab * xi, exactly
    coords = [[quotient.c(a, b, k) for a, b in pairs] for k in range(m)]
    rhs = mat_sub(mat_mul(transpose(cols[:m]), coords),
                  mat_mul([[x] for x in xi], [[omega[a][b] for a, b in pairs]]))
    if pairs and not mat_eq(transpose(brackets), rhs):
        raise PreconditionError("bracket does not split along the given complement")
    return CentralQuotient(
        quotient,
        tuple(tuple(r) for r in omega),
        tuple(tuple(c) for c in cols[:m]),
        tuple(xi),
    )
