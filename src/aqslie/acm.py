"""Almost contact metric structures (phi, xi, eta, g) on a metric Lie algebra.

Defining identities: phi^2 = -I + eta (x) xi, eta(xi) = 1, and
g(phi X, phi Y) = g(X, Y) - eta(X) eta(Y).  The classification evaluates
d Phi, d eta and the Nijenhuis tensor N_phi = [phi, phi] + d eta (x) xi,
and returns every class whose defining equations hold (classes overlap).

Sign convention, fixed package-wide: d eta (X, Y) = -eta([X, Y]).

Shared formulas live here once: :func:`nijenhuis` is the Nijenhuis bracket
of any endomorphism (phi here, the complex structure J of a Kahler algebra
in ``constructors``), and :func:`psi_matrix` is psi = -nabla xi for both
the anti-quasi-Sasakian operator pack and the quasi-Sasakian classifier.
[J, J] is ``lie_core.nijenhuis_columns``, at the cost of the nonzero constants and
entries of J, d Phi and d g(., A .) the scatter onto triples of P = C W, C the basis
pair brackets read off the table (``lie_core.basis_brackets``, ``exterior.d_of_pairs``),
and d eta = -eta([., .]) one pass over the table (``exterior.d_of_covector``): no
KForm is differentiated here and no ad matrix is built for it.  The class
tags are zero tests of the residual entries (:func:`classify_structure`); the
magnitude of a residual is made where it is read (:meth:`StructureClass.residual`).

Throughout the package a check on all basis pairs is one matrix identity,
never a loop of per-pair evaluations.  2-forms and bilinear forms are
compared as Gram products: d eta(phi X, phi Y) = -d eta(X, Y) is
phi^T B phi + B = 0 here, w(JX, JY) = w(X, Y) is J^T W J = W in
``constructors`` and ``invariant_forms``, d eta = 2 Phi is the matrix of
d eta minus twice that of Phi, and the adapted frame is certified by
R^T g R = Delta^-2.  Brackets are products of ad matrices in the Koszul
solves here and in the bracket inclusions, equivariance and integrability of
J on m-blocks C_m ad_U M in ``invariant_forms``.

For a left-invariant metric the Koszul formula reads 2 g Gamma_i = g ad_i -
ad_i^T g - B_i with (B_i)_kj = g([b_j, b_k], b_i), Gamma_i b_j = nabla_{b_i} b_j
(J. Milnor, "Curvatures of left invariant metrics on Lie groups", Adv. Math.
21, 1976).  Classification reads only psi = -nabla xi (:func:`psi_matrix`),
one Koszul solve along xi on exact views and the rows Gamma_a b_k, k in the
support of xi, on float ones, certified by the two halves of g psi: g psi +
(g psi)^T = -L_xi g and g psi - (g psi)^T = d eta.  The whole connection is
built for curvature only, as the n^2 vectors Gamma_i b_j,
certified by Gamma_i b_j - Gamma_j b_i = [b_i, b_j] and g Gamma_i +
Gamma_i^T g = 0.  Ricci reads them: Ric_ij = sum_a R(b_a, b_i)_aj with
R(b_a, b_i) = [Gamma_a, Gamma_i] - sum_k c_ai^k Gamma_k, row a only, O(n^4).
Sectional curvatures through one X are a batch: the inner nablas of every
R(X, Y)Y are one table product, the outer ones another.

The field is decided once per structure, by its numerator view
(:func:`numerator_view`): phi, g, the rows xi and eta and the identity as
values, one integer matrix per square class over a denominator
(``tower.TowerOver``, the class 1 alone when all are rational) when all are
exact, else ``linalg.MatOver``s of the tensors over 1; the basis ad matrices
join them on demand, for the Koszul readers and curvature.
Identities are written on values, which meet at a common denominator by
themselves, and a value is divided back only where it leaves (a residual, a
table, an operator, a frame or an isomorphism).  A tower structure whose
entries are one term each and factor over their indices runs on its
:func:`rational_rescaling`, rational in the basis sqrt(d_k) e_k
(``LieAlgebra.sqrt_basis``); ``linalg.diag_scaled`` maps its residual
entries, Ricci tensor and F back.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cache, cached_property, partial, reduce

from .errors import (
    AqslieError,
    DimensionMismatch,
    InternalContradiction,
    InvalidStructure,
    NotAqs,
    PreconditionError,
    ToleranceExceeded,
)
from .exterior import KForm, covector_class, covector_form, d_of_covector, d_of_pairs
from .lie_core import LieAlgebra, ad_value, basis_brackets, bracket, in_basis, nijenhuis_columns
from .linalg import (
    Mat,
    MatOver,
    Vec,
    _flat,
    diag_scaled,
    dot,
    identity,
    inverse,
    is_positive_definite,
    mat_add,
    mat_mul,
    mat_solve,
    mat_sub,
    mat_vec,
    mat_vecs,
    max_abs,
    stacked,
    transpose,
    vec_is_zero,
    vec_sub,
)
from .scalars import ONE, ZERO, get_tolerance, s_abs, s_div, s_is_zero, s_lt, s_mul, s_sub, units
from .tower import TowerOver, outer_rows

CLASS_CONTACT_METRIC = "ContactMetric"
CLASS_SASAKIAN = "Sasakian"
CLASS_COKAHLER = "Cokahler"
CLASS_QUASI_SASAKIAN = "QuasiSasakian"
CLASS_ANTI_QUASI_SASAKIAN = "AntiQuasiSasakian"
CLASS_DOUBLE_AQS_SASAKIAN = "DoubleAqsSasakian"
CLASS_UNCLASSIFIED = "Unclassified"

# each class of classify_structure and the residuals that vanish on it:
# d eta = 2 Phi (contact metric), N_phi = 0 (normal), d Phi = 0, d eta = 0,
# and N_phi = 2 d eta (x) xi (anti-normal)
CLASS_RESIDUALS = {
    CLASS_CONTACT_METRIC: ("contact_metric",),
    CLASS_SASAKIAN: ("contact_metric", "n_phi"),
    CLASS_QUASI_SASAKIAN: ("d_phi", "n_phi"),
    CLASS_ANTI_QUASI_SASAKIAN: ("d_phi", "anti_normal"),
    CLASS_COKAHLER: ("d_eta", "d_phi", "n_phi"),
}


@dataclass(frozen=True, eq=False)
class AcmStructure:
    L: LieAlgebra
    phi: tuple  # N x N, column j = phi(b_j)
    xi: tuple
    eta: tuple  # covector
    g: tuple  # symmetric positive definite

    def __post_init__(self):
        # memo for the pure derived quantities (connection, classification,
        # rank, operators); invisible to equality and serialization
        object.__setattr__(self, "_memo", {})

    @staticmethod
    def make(L: LieAlgebra, phi: Mat, xi: Vec, eta: Vec, g: Mat) -> "AcmStructure":
        n = L.dim
        if len(xi) != n or len(eta) != n or len(phi) != n or len(g) != n:
            raise DimensionMismatch("tensor sizes do not match the algebra")
        return AcmStructure(
            L,
            tuple(tuple(r) for r in phi),
            tuple(xi),
            tuple(eta),
            tuple(tuple(r) for r in g),
        )

    def phi_mat(self) -> Mat:
        return [list(r) for r in self.phi]

    def g_mat(self) -> Mat:
        return [list(r) for r in self.g]

    def xi_vec(self) -> Vec:
        return list(self.xi)

    def eta_row(self) -> Vec:
        return list(self.eta)

    def eta_form(self) -> KForm:
        return covector_form(list(self.eta))


class TensorNumerators(namedtuple("TensorNumerators", "L phi g xi eta one")):
    """The tensors as values, and the basis ad matrices made on their first read."""
    ads = cached_property(lambda self: self.L.ad_values()[0])  # Koszul rows and Ricci read them


def numerator_view(S: AcmStructure) -> TensorNumerators:
    """The tensors of S as values, the one field decision of a structure, in the memo."""
    if "numerators" not in S._memo:
        S._memo["numerators"] = TensorNumerators(S.L, *S.L.values(
            S.phi_mat(), S.g_mat(), [S.xi_vec()], [S.eta_row()], identity(S.L.dim, S.L.floats)))
    return S._memo["numerators"]


Rescaling = namedtuple("Rescaling", "S up down")  # S in the basis up_k e_k, down = 1 / up


def rescaled(S: AcmStructure, up: list, down: list) -> AcmStructure:
    """S in the basis up_k e_k, down_k = 1 / up_k: phi' = diag(down) phi diag(up),
    g' = diag(up) g diag(up), xi' = down xi, eta' = up eta; one product per entry."""
    (xi,), (eta,) = diag_scaled([S.xi], None, down), diag_scaled([S.eta], None, up)
    return AcmStructure.make(
        S.L.rescaled(up, down), diag_scaled(S.phi, down, up), xi, eta, diag_scaled(S.g, up, up))


def rational_rescaling(S: AcmStructure) -> Rescaling | None:
    """S in the basis sqrt(d_k) e_k of the square classes of its constants,
    phi, g, xi and eta (``LieAlgebra.sqrt_basis``), where it is rational; None
    when there is none.  Kept in the memo."""
    if "rescaling" not in S._memo:
        scales = S.L.sqrt_basis([S.phi, S.g], [S.xi, S.eta])
        S._memo["rescaling"] = scales and Rescaling(rescaled(S, *scales), *scales)
    return S._memo["rescaling"]


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    residuals: dict = field(default_factory=dict)  # check name -> max |residual|
    max_residual: object = ZERO
    worst_check: str = ""


def validate_acm(S: AcmStructure) -> ValidationReport:
    """Check the defining identities; failures are report entries."""
    v, one = numerator_view(S), units(S.L.floats)[1]
    phi, g, xi, eta, pd = v.phi, v.g, v.xi, v.eta, is_positive_definite(v.g.N)
    residuals = {
        "phi_squared": (phi @ phi - (xi.T @ eta - v.one)).max_abs(),
        "eta_xi": s_abs(s_sub((eta @ xi.T).mat()[0][0], one)),
        "g_symmetric": (g - g.T).max_abs(),
        # g(phi X, phi Y) = g(X, Y) - eta(X) eta(Y): phi^T g phi = g - eta^T eta
        "compatibility": (phi.T @ (g @ phi) - (g - eta.T @ eta)).max_abs(),
        "phi_xi": phi.on_rows(xi).max_abs(),
        "eta_phi": phi.T.on_rows(eta).max_abs(),
        "xi_unit": s_abs(s_sub((xi @ g.on_rows(xi).T).mat()[0][0], one)),
        "g_positive_definite": ZERO if pd else ONE,
    }

    worst_name, worst = "", ZERO
    for name, r in residuals.items():
        if s_lt(worst, r):
            worst_name, worst = name, r
    passed = pd and _all_vanish(residuals)
    return ValidationReport(passed, residuals, worst, worst_name)


def _all_vanish(residuals: dict) -> bool:
    """Every residual is zero (under the float tolerance)."""
    return all(map(s_is_zero, residuals.values()))


def nijenhuis(L: LieAlgebra, J: Mat) -> dict:
    """Nijenhuis bracket [J, J] of an endomorphism on basis pairs, i < j:
    {(i, j): [J b_i, J b_j] + J^2 [b_i, b_j] - J [b_i, J b_j] - J [J b_i, b_j]}."""
    (J,) = L.values(J)
    return dict(zip(_pairs(L.dim), nijenhuis_columns(L, J).T.mat()))


def _pairs(n: int) -> list:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def nijenhuis_phi(S: AcmStructure) -> dict:
    """Nijenhuis torsion [phi, phi] on basis pairs: {(i, j): vector}, i < j."""
    return nijenhuis(S.L, S.phi_mat())


@dataclass(frozen=True, eq=False)
class StructureClass:
    """The class tags of a structure and behind them the magnitude max |entry| of
    each residual of CLASS_RESIDUALS, made where it is read: :meth:`residual` makes
    one, :attr:`residuals` all five."""
    tags: frozenset
    magnitudes: dict = field(default_factory=dict)  # residual name -> its magnitude, uncalled
    _kept: dict = field(default_factory=dict, init=False)  # the magnitudes made so far

    def has(self, tag: str) -> bool:
        return tag in self.tags

    def residual(self, name: str):
        """The magnitude of the named residual, made on its first read and kept."""
        if name not in self._kept:
            self._kept[name] = self.magnitudes[name]()
        return self._kept[name]

    residuals = cached_property(lambda self: {name: self.residual(name)
                                              for name in self.magnitudes})

    def __eq__(self, other) -> bool:
        return type(other) is StructureClass and (self.tags, self.residuals) == (
            other.tags, other.residuals)

    def __repr__(self) -> str:
        return f"StructureClass(tags={self.tags!r}, residuals={self.residuals!r})"


def classify_structure(S: AcmStructure) -> StructureClass:
    """All satisfied class tags among contact metric / Sasakian / cokahler /
    quasi-Sasakian / anti-quasi-Sasakian, each read from the zero tests of the
    residuals that CLASS_RESIDUALS names for it; a magnitude is made only where it
    is read.  With a rational rescaling the work runs on it and each memo keeps the
    result in its own basis: the rescaling's magnitudes of the entries as computed,
    S's of each nonzero entry mapped back (the tags are the same)."""
    if "classification" in S._memo:
        return S._memo["classification"]
    r = rational_rescaling(S)
    T = S if r is None else r.S
    if not validate_acm(T).passed:  # the worst check is named in the input basis
        raise InvalidStructure(
            f"not an almost contact metric structure (worst: {validate_acm(S).worst_check})"
        )
    triples, entries = _residual_entries(T)
    vanish = {name: X.is_zero() for name, X in entries.items()}
    tags = frozenset({tag for tag, names in CLASS_RESIDUALS.items()
                      if all(map(vanish.__getitem__, names))} or {CLASS_UNCLASSIFIED})
    T._memo["classification"] = StructureClass(tags, {
        name: X.max_abs for name, X in entries.items()})
    if r is not None:  # S's residuals in its own basis: a column's scale made once, if nonzero
        scale, pairs = cache(lambda I: reduce(s_mul, map(r.down.__getitem__, I))), _pairs(T.L.dim)

        def mapped(name: str, X: MatOver):  # diag(left) X diag(the scales of its columns)
            right = [scale(I) if any(col) else None  # the columns are pairs, or triples
                     for I, col in zip(triples if name == "d_phi" else pairs, zip(*X.N))]
            left = r.up if name in ("n_phi", "anti_normal") else None
            return max_abs(_flat(diag_scaled(X.mat(), left, right)))

        S._memo["classification"] = StructureClass(tags, {
            name: partial(mapped, name, X) for name, X in entries.items()})
    return S._memo["classification"]


def _residual_entries(S: AcmStructure) -> tuple[list, dict]:
    """(d Phi's triples, each residual's entries: the pairs, or triples, as columns)."""
    v, pairs = numerator_view(S), _pairs(S.L.dim)
    W = v.g @ v.phi  # W_kl = Phi(b_k, b_l) = g(b_k, phi b_l)
    if not (W + W.T).is_zero():
        raise InvalidStructure("g(., phi .) is not alternating; structure invalid")
    at_pairs = lambda X: X.regroup(lambda N: [[N[i][j] for i, j in pairs]])  # noqa: E731
    # d Phi from Phi([b_a, b_b], b_l), one product with the pair brackets; d eta on the pairs
    triples, d_phi = d_of_pairs(basis_brackets(S.L, pairs) @ W, pairs)
    deta_pairs = at_pairs(_d_eta(S))
    # N_phi = [phi, phi] + d eta (x) xi
    xi_deta = v.xi.T @ deta_pairs
    n_phi = nijenhuis_columns(S.L, v.phi) + xi_deta
    return triples, {"d_phi": d_phi, "d_eta": deta_pairs, "n_phi": n_phi,
                     "anti_normal": n_phi - xi_deta * 2,
                     "contact_metric": deta_pairs - at_pairs(W) * 2}


def xi_killing_check(S: AcmStructure) -> bool:
    """g([xi, X], Y) + g(X, [xi, Y]) = 0 on all basis pairs, i.e. g ad_xi +
    (g ad_xi)^T = 0 on the view; the verdict is kept in the memo, an exception
    raised again on every call.  Read on the rational rescaling if there is one."""
    if r := rational_rescaling(S):
        return xi_killing_check(r.S)
    if "xi_killing" not in S._memo:
        ad_xi, M = _g_ad_xi(S)
        killing = (M + M.T).is_zero()
        # consequence: d eta (xi, .) = 0, i.e. eta([xi, .]) = 0
        if killing and not ad_xi.T.on_rows(numerator_view(S).eta).is_zero():
            raise InternalContradiction("Killing xi with d eta(xi,.) != 0")
        S._memo["xi_killing"] = killing
    return S._memo["xi_killing"]


def _d_eta(S: AcmStructure) -> MatOver:
    """The matrix of d eta on the numerator view (``exterior.d_of_covector``), in the memo."""
    if "d_eta" not in S._memo:
        S._memo["d_eta"] = d_of_covector(S.L, numerator_view(S).eta)
    return S._memo["d_eta"]


def _g_ad_xi(S: AcmStructure) -> tuple[MatOver, MatOver]:
    """(ad_xi, g ad_xi) on the numerator view, kept for the Killing check and psi."""
    if "g_ad_xi" not in S._memo:
        ad_xi = ad_value(S.L, numerator_view(S).xi)
        S._memo["g_ad_xi"] = ad_xi, numerator_view(S).g @ ad_xi
    return S._memo["g_ad_xi"]


@dataclass(frozen=True)
class ConnectionTable:
    columns: MatOver  # row i n + j: nabla_{b_i} b_j, the column j of Gamma_i

    def nablas(self, pairs: list) -> list[Vec]:
        """nabla_X Y for each (X, Y) of pairs: the sums of (X_i Y_j) Gamma_i b_j over
        the (i, j) in order, near-zero X_i and Y_j skipped, as one product of the
        coefficient rows (``tower.outer_rows``) with the table rows i n + j the pairs
        use, ascending; the table is never divided back."""
        tower = isinstance(self.columns, TowerOver)
        used, K = outer_rows(pairs, tower)
        if not used:  # no pair has a coefficient
            return [[units(not tower)[0]] * len(X) for X, _ in pairs]  # the table's field
        return (K @ self.columns.regroup(lambda N: [N[u] for u in used])).mat()


def _koszul_rows(v: TensorNumerators, g_inv: MatOver, pairs: list) -> MatOver:
    """Row p: Gamma_i b_j for the p-th pair (i, j), g^-1 / 2 times its Koszul column
    (g([b_i, b_j], b_k) - g([b_j, b_k], b_i)) + g([b_k, b_i], b_j) over k, in this
    float order, all in one product.  The Koszul columns read T[i n + k][j] = (g ad_i)_kj
    at the columns, rows and whole blocks j of the pairs: T is the n products g ad_i
    when the pairs reach every j, else those entries alone (:func:`_koszul_reads`).
    Each entry keeps its own fold, so a row is the same bits whichever other pairs
    are built with it."""
    n, js = len(v.ads), sorted({j for _, j in pairs})

    def koszul(T: Mat) -> Mat:  # T[i n + k][j] = g([b_i, b_j], b_k); n pairs at a time:
        rows = []  # all at once, the n^3 temporaries raise the heap peak by a sixth
        for ps in (pairs[c:c + n] for c in range(0, len(pairs), n)):
            rows += mat_add(mat_sub([[T[i * n + k][j] for k in range(n)] for i, j in ps],
                                    [T[j * n + i] for i, j in ps]),
                            [[T[k * n + j][i] for k in range(n)] for i, j in ps])
        return rows

    T = stacked([v.g @ ad for ad in v.ads]) if len(js) == n else _koszul_reads(v, js)
    return (g_inv * (ONE / 2)).on_rows(T.regroup(koszul))


def _koszul_reads(v: TensorNumerators, js: list) -> MatOver:
    """The entries of the stacked g ad_i (row i n + k, column j) that the Koszul rows of
    pairs (i, j), j in js, read on a float view, the others 0.0: the blocks j, and the
    columns js and rows js of every block, one product each, every entry folded as in
    g ad_i."""
    n, m, ads = len(v.ads), len(js), stacked(v.ads)  # row a n + r: row r of ad_a
    cols = (v.g @ ads.regroup(lambda N: [[N[a * n + r][j] for a in range(n) for j in js]
                                         for r in range(n)])).mat()  # column a m + x: ad_a b_j
    rows = (v.g.regroup(lambda N: [N[j] for j in js]) @ ads.regroup(lambda N: [
        list(itertools.chain.from_iterable(N[r::n])) for r in range(n)])).mat()
    T = [[0.0] * n for _ in range(n * n)]
    for x, j in enumerate(js):
        for a, k in itertools.product(range(n), range(n)):
            T[a * n + k][j] = cols[k][a * m + x]
        for a in range(n):
            T[a * n + j] = rows[x][a * n:a * n + n]
    for j in js:
        T[j * n:j * n + n] = (v.g @ v.ads[j]).mat()
    return MatOver(T)


def levi_civita(S: AcmStructure) -> ConnectionTable:
    """The Koszul formula in matrix form (module docstring): all n^2 rows of
    :func:`_koszul_rows`, certified in whole-table passes (torsion on the pairs
    i < j, g Gamma_i + Gamma_i^T g from one product with g).  Built for curvature
    only: psi reads the rows along xi (:func:`psi_matrix`)."""
    if "connection" in S._memo:
        return S._memo["connection"]
    v, n = numerator_view(S), S.L.dim
    _metric_preconditions(g := v.g)
    g_inv = mat_solve(g, v.one)
    S._memo["g_inverse"] = g_inv.mat()  # the scalar curvature reads it
    table = ConnectionTable(_koszul_rows(v, g_inv, [(i, j) for i in range(n) for j in range(n)]))
    # certify the table: Gamma_i b_j - Gamma_j b_i = [b_i, b_j], g Gamma_i + Gamma_i^T g = 0
    pairs = _pairs(n)
    swapped = table.columns.regroup(lambda N: mat_sub([N[i * n + j] for i, j in pairs],
                                                      [N[j * n + i] for i, j in pairs]))
    _require_zero(swapped - basis_brackets(S.L, pairs), "Koszul solve lost torsion-freeness")
    g_cols = g.on_rows(table.columns)  # column j of g Gamma_i at i n + j
    blocks = (g_cols[i * n:i * n + n] for i in range(n))  # B + B^T: g Gamma_i + Gamma_i^T g
    _require_zero(stacked([B + B.T for B in blocks]), "Koszul solve lost metric compatibility")
    S._memo["connection"] = table
    return table


def _require_zero(residual: MatOver, what: str) -> None:
    """The certificate failure of what on the first row of residual not zero."""
    if not residual.is_zero():
        raise certificate_failure(what, next(row for row in residual.mat() if not vec_is_zero(row)))


def _metric_preconditions(g: MatOver) -> None:
    """What both Koszul solves require of the view's metric g."""
    if not g == g.T:
        raise PreconditionError("metric is not symmetric")
    if not is_positive_definite(g.N):
        raise PreconditionError("metric is not positive definite")


def certificate_failure(what: str, residuals) -> AqslieError:
    """The error for a failed certificate, given its residual entries: a
    contradiction in exact arithmetic, a precision limit of the input when
    the residuals are floats (rounding exceeded the absolute tolerance, or a
    float overflowed: the worst residual is then inf or nan)."""
    worst = max_abs(residuals)
    if isinstance(worst, float) and not math.isfinite(worst):
        return ToleranceExceeded(f"{what} at float precision: residual {worst} is not "
                                 f"finite (float overflow); rerun in exact mode")
    if isinstance(worst, float):
        return ToleranceExceeded(
            f"{what} at float precision: residual {worst:.3g} exceeds the absolute "
            f"tolerance {get_tolerance():g}; rerun with a larger --tolerance or in "
            f"exact mode"
        )
    return InternalContradiction(what)


@dataclass(frozen=True)
class OperatorPack:
    operators: tuple  # values (A, psi): A = phi psi = -phi o nabla xi, psi = -nabla xi
    ok: bool
    residuals: dict
    A = cached_property(lambda self: tuple(map(tuple, self.operators[0].mat())))
    psi = cached_property(lambda self: tuple(map(tuple, self.operators[1].mat())))


def psi_matrix(S: AcmStructure) -> MatOver:
    """psi = -nabla xi, column j = -nabla_{b_j} xi, certified by the two halves of g
    psi, which determine it: g psi + (g psi)^T = -L_xi g = G + G^T, G = g ad_xi, and
    g psi - (g psi)^T = d eta = B.  An exact view solves 2 g nabla xi = -(G + G^T) - B
    by one elimination; a float view builds only the rows Gamma_a b_k, k in the
    support of xi (:func:`_koszul_rows`), folded on xi as the whole table's, bit for bit."""
    v, n = numerator_view(S), S.L.dim
    _metric_preconditions(v.g)
    G, B = _g_ad_xi(S)[1], _d_eta(S)
    sym = G + G.T
    if isinstance(v.g, TowerOver):
        psi = mat_solve(v.g, sym + B) * (ONE / 2)
    else:  # a near-zero xi_k makes no pair of the fold: row 0 stands in for an empty support
        ks = [k for k, x in enumerate(v.xi.N[0]) if not s_is_zero(x)] or [0]
        C = _koszul_rows(v, mat_solve(v.g, v.one), [(a, k) for a in range(n) for k in ks])
        xi, m = v.xi.regroup(lambda N: [[N[0][k] for k in ks]]), len(ks)
        psi = -stacked([C[a * m:a * m + m].T.on_rows(xi) for a in range(n)]).T
    P = v.g @ psi
    _require_zero(P + P.T - sym, "Koszul solve along xi: g psi lost its symmetric part -L_xi g")
    _require_zero(P - P.T - B, "Koszul solve along xi: g psi lost its skew part d eta")
    return psi


def operators_A_psi(S: AcmStructure) -> OperatorPack:
    """Operators A = -phi o nabla xi and psi = -nabla xi (:func:`psi_matrix`),
    with the identity suite (A phi = psi = -phi A, phi psi = A = -psi phi,
    psi A = -phi A^2 = -A psi, A xi = psi xi = 0, skew-symmetry) asserted, not
    assumed, on the values of the numerator view."""
    if "operators" in S._memo:
        return S._memo["operators"]
    v, psi = numerator_view(S), psi_matrix(S)
    phi, g, xi, eta, A = v.phi, v.g, v.xi, v.eta, v.phi @ psi
    psiA, gA, gpsi = psi @ A, g @ A, g @ psi
    residuals = {
        "A_phi_eq_psi": (A @ phi - psi).max_abs(),
        "phi_A_eq_minus_psi": (phi @ A + psi).max_abs(),
        "psi_phi_eq_minus_A": (psi @ phi + A).max_abs(),
        "psi_A_anticommute": (psiA + A @ psi).max_abs(),
        "psi_A_eq_minus_phi_A2": (psiA + phi @ (A @ A)).max_abs(),
        "A_xi": A.on_rows(xi).max_abs(),
        "psi_xi": psi.on_rows(xi).max_abs(),
        "eta_A": A.T.on_rows(eta).max_abs(),
        "eta_psi": psi.T.on_rows(eta).max_abs(),
        "A_skew": (gA.T + gA).max_abs(),
        "psi_skew": (gpsi.T + gpsi).max_abs(),
    }
    pack = OperatorPack((A, psi), _all_vanish(residuals), residuals)
    S._memo["operators"] = pack
    return pack


@dataclass(frozen=True)
class ClosednessReport:
    ok: bool
    residuals: dict
    witness: tuple | None  # offending basis pair for the anti-invariance check


def closedness_suite(S: AcmStructure) -> ClosednessReport:
    """For an anti-quasi-Sasakian structure: d(g(.,A.)) = 0, d Phi = 0,
    d eta = 2 g(., psi .), and d eta(phi X, phi Y) = -d eta(X, Y).  The forms
    g(., A .) and g(., psi .) are read as zero when the operator identities
    fail (they need not be alternating then)."""
    cls = classify_structure(S)
    if CLASS_ANTI_QUASI_SASAKIAN not in cls.tags:
        raise NotAqs("closedness suite requires an anti-quasi-Sasakian structure")
    pack, v, pairs, B = operators_A_psi(S), numerator_view(S), _pairs(S.L.dim), _d_eta(S)
    # the matrices of g(., A .) and g(., psi .); d of the first off the pair brackets
    gA, g_psi = (v.g @ X if pack.ok else v.g * 0 for X in pack.operators)
    residuals = {"dA": d_of_pairs(basis_brackets(S.L, pairs) @ gA, pairs)[1].max_abs(),
                 "dPhi": cls.residual("d_phi"),
                 "deta_eq_2Psi": (B - g_psi * 2).max_abs()}  # B the d eta of the memo
    if not pack.ok:
        residuals["operator_identities"] = ONE
    # d eta(phi X, phi Y) + d eta(X, Y) on basis pairs: phi^T B phi + B
    anti = (v.phi.T @ (B @ v.phi) + B).mat()
    witness = next(((i, j) for i, j in pairs if not s_is_zero(anti[i][j])), None)
    residuals["deta_anti_invariance"] = max_abs(anti[i][j] for i, j in pairs)
    return ClosednessReport(_all_vanish(residuals), residuals, witness)


@dataclass(frozen=True)
class CurvatureData:
    connection: ConnectionTable  # of the rational rescaling, when there is one
    ricci: tuple
    scalar: object


def curvature(S: AcmStructure) -> CurvatureData:
    """Ricci tensor and scalar curvature: Ric_ij = sum over a of entry (a, j) of
    R(b_a, b_i) = [Gamma_a, Gamma_i] - sum_k c_ai^k Gamma_k, row a only, on the
    values of the table and the ad matrices.  The rows a of every Gamma_a
    Gamma_i are one product, the other terms one per a, summed over a in order
    (float entries keep their bits).  With a rational rescaling it runs there,
    Ric_ij = Ric'_ij down_i down_j, and the scalar curvature is invariant."""
    if r := rational_rescaling(S):
        data = curvature(r.S)
        return CurvatureData(data.connection, tuple(map(tuple, diag_scaled(
            data.ricci, r.down, r.down))), data.scalar)
    conn, n, ads = levi_civita(S), S.L.dim, numerator_view(S).ads
    C = conn.columns  # C[i n + j] = Gamma_i b_j
    # rows[a][k] = row a of Gamma_k; lefts[a][i n + j] = (Gamma_a Gamma_i)_aj
    rows = [C.regroup(lambda N: [[N[k * n + j][a] for j in range(n)] for k in range(n)])
            for a in range(n)]
    lefts = stacked([R[a:a + 1] for a, R in enumerate(rows)]).on_rows(C).T
    # term a: (Gamma_a Gamma_i)_a, (Gamma_i Gamma_a)_a on the columns of Gamma_a, and
    # (sum_k c_ai^k Gamma_k)_a with [b_a, b_i] the column i of ad_a, row i each
    terms = [lefts[a:a + 1].regroup(lambda N: [N[0][i * n:i * n + n] for i in range(n)])
             - R.on_rows(C[a * n:a * n + n]).T - R.T.on_rows(ads[a].T) for a, R in enumerate(rows)]
    ricci = sum(terms[1:], terms[0]).mat()
    scal = dot(_flat(S._memo["g_inverse"]), _flat(ricci))  # as levi_civita kept it
    return CurvatureData(conn, tuple(tuple(r) for r in ricci), scal)


def sectional_curvatures(S: AcmStructure, curv: CurvatureData, X: Vec, Ys: list) -> list:
    """K(X, Y) = g(R(X,Y)Y, X) / (|X|^2 |Y|^2 - g(X,Y)^2) for each Y of Ys, None
    on a degenerate plane, with R(X,Y)Y = nabla_X nabla_Y Y - nabla_Y nabla_X Y -
    nabla_[X,Y] Y: two table products for all Ys, then each pairing with g one
    product.  With a rational rescaling, curv holds its connection and X and
    the Ys map to its basis: a multiple of b_k to its b_k, since K(cX, Y) =
    K(X, cY) = K(X, Y), any other vector by the diagonal map."""
    if r := rational_rescaling(S):
        X, *Ys = (r.S.L.basis_vector(s[0]) if len(s := [i for i, x in enumerate(v) if x]) == 1
                  else diag_scaled([v], None, r.down)[0] for v in (X, *Ys))
        return sectional_curvatures(r.S, curv, X, Ys)
    g, nablas, m = S.g_mat(), curv.connection.nablas, len(Ys)
    inner = nablas([(Y, Y) for Y in Ys] + [(X, Y) for Y in Ys])
    outer = nablas([(X, v) for v in inner[:m]] + list(zip(Ys, inner[m:]))
                   + [(bracket(S.L, X, Y), Y) for Y in Ys])
    RYs = [vec_sub(vec_sub(a, b), c) for a, b, c in zip(outer, outer[m:], outer[2 * m:])]
    gX, gYs = mat_vec(g, X), mat_vecs(g, Ys)
    # g(RY, X) = RY . gX and g(X, Y) = gY . X, one single-column product each
    nums, gXYs = (_flat(mat_mul(rows, transpose([v]))) for rows, v in ((RYs, gX), (gYs, X)))
    XX = dot(X, gX)  # |X|^2 |Y|^2 - g(X,Y)^2 is the squared area of the plane
    areas = [s_sub(s_mul(XX, dot(Y, gY)), s_mul(c, c)) for Y, gY, c in zip(Ys, gYs, gXYs)]
    return [None if s_is_zero(a) else s_div(num, a) for num, a in zip(nums, areas)]


def sectional_curvature(S: AcmStructure, curv: CurvatureData, X: Vec, Y: Vec):
    """K(X, Y), :func:`sectional_curvatures` on one Y."""
    (K,) = sectional_curvatures(S, curv, X, [Y])
    if K is None:
        raise PreconditionError("degenerate 2-plane")
    return K


@dataclass(frozen=True)
class DoubleReport:
    ok: bool
    residuals: dict


def double_aqs_check(S1: AcmStructure, S2: AcmStructure, S3: AcmStructure) -> DoubleReport:
    """Double aqS-Sasakian test: shared (xi, eta, g), phi1 phi2 = phi3
    = -phi2 phi1, d Phi1 = d Phi2 = 0 and d eta = 2 Phi3, the last three read
    from the classification residuals of S1, S2 and S3."""
    p1, p2, p3 = S1.phi_mat(), S2.phi_mat(), S3.phi_mat()
    residuals = {
        "shared_tensors": max_abs(x for b in (S2, S3) for x in vec_sub(S1.xi, b.xi)
                                  + vec_sub(S1.eta, b.eta) + _flat(mat_sub(S1.g, b.g))),
        "phi1_phi2_eq_phi3": max_abs(_flat(mat_sub(mat_mul(p1, p2), p3))),
        "phi2_phi1_eq_minus_phi3": max_abs(_flat(mat_add(mat_mul(p2, p1), p3))),
        "dPhi1": classify_structure(S1).residual("d_phi"),
        "dPhi2": classify_structure(S2).residual("d_phi"),
        "deta_eq_2Phi3": classify_structure(S3).residual("contact_metric"),
    }
    return DoubleReport(_all_vanish(residuals), residuals)


def conjugate_structure(S: AcmStructure, Q: Mat) -> AcmStructure:
    """Transport the algebra and all structure tensors to the basis whose
    j-th vector is column j of Q (coordinates in the old basis)."""
    Q_inv = inverse(Q)
    L2 = in_basis(S.L, Q, Q_inv)
    phi2 = mat_mul(Q_inv, mat_mul(S.phi_mat(), Q))
    xi2 = mat_vec(Q_inv, S.xi_vec())
    eta2 = mat_vec(transpose(Q), S.eta_row())
    g2 = mat_mul(transpose(Q), mat_mul(S.g_mat(), Q))
    return AcmStructure.make(L2, phi2, xi2, eta2, g2)


def structure_rank(S: AcmStructure):
    """Rank report of eta for this structure (invariant: read on the rational
    rescaling when there is one), from the d eta in the memo."""
    if r := rational_rescaling(S):
        return structure_rank(r.S)
    if "rank" not in S._memo:
        S._memo["rank"] = covector_class(_d_eta(S), numerator_view(S).eta)
    return S._memo["rank"]
