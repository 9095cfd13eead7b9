"""The two-route bracket and ad matrix of ``lie_core``, kept as oracles.

``lie_core.bracket`` and ``lie_core.ad_value`` read the table in one loop
for every field.  Before that, each had an integer route over the scaled
table and a second route for every other field: ``bracket`` looped over
``L.brackets`` with the scalar functions, and the ad matrix was assembled
from n ``bracket`` columns.  The tests compare the one loop, ad_X as the
numerators and denominator of its value, with these routes by ``repr``, so
the bits of a float, the sign of a zero and ``ZERO`` against ``0.0`` all
show.  Both read one field: a float-mode algebra with float operands.
"""

from fractions import Fraction

from aqslie.linalg import _int_scaled, transpose
from aqslie.scalars import ZERO, s_add, s_is_zero, s_mul, s_sub, units


def bracket_routes(L, X, Y):
    """[X, Y]: integers when the table is rational and X and Y each are all
    rational or all int, else the scalar loop over the stored constants from
    the zero of L's field (0.0 in float mode)."""
    table, den = L._tables()
    sx = _int_scaled(X) if den is not None else None
    sy = _int_scaled(Y) if sx is not None else None
    if sy is not None:
        (xi, dx), (yi, dy) = sx, sy
        acc = [0] * L.dim
        for (i, j), entries in table.items():
            coeff = xi[i] * yi[j] - xi[j] * yi[i]
            if coeff:
                for k, v in entries.items():
                    acc[k] += coeff * v
        den *= (dx or 1) * (dy or 1)
        return [Fraction(a, den) if a else ZERO for a in acc]
    out = [units(L.floats)[0]] * L.dim
    for (i, j), entries in L.brackets:
        if (not X[i] or not Y[j]) and (not X[j] or not Y[i]):
            continue
        coeff = s_sub(s_mul(X[i], Y[j]), s_mul(X[j], Y[i]))
        if s_is_zero(coeff):
            continue
        for k, v in entries:
            out[k] = s_add(out[k], s_mul(coeff, v))
    return out


def ad_matrix_routes(L, X):
    """(N, den) of ad_X: one pass over the integer table for a rational (or
    int) X on a rational algebra, else the bracket columns over 1."""
    table, den = L._tables()
    sx = _int_scaled(X) if den is not None else None
    if sx is None:
        return transpose([bracket_routes(L, X, L.basis_vector(j)) for j in range(L.dim)]), 1
    xi, dx = sx
    N = [[0] * L.dim for _ in range(L.dim)]
    for (p, q), entries in table.items():
        a, b = xi[p], xi[q]
        if a or b:
            for k, v in entries.items():
                N[k][q] += a * v
                N[k][p] -= b * v
    return N, den * (dx or 1)
