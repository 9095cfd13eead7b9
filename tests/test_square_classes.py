"""Square classes: tower structures that are diagonal rescalings of rational ones.

A structure whose every entry is one term q sqrt(s), with radicands that
factor over the entries' indices, is rational in the basis sqrt(d_i) e_i of
its square classes d (``lie_core.square_classes`` through
``LieAlgebra.sqrt_basis``).  ``acm.rational_rescaling`` keeps that copy, the
classify, curvature and cohomology stages run on it, and only F and the Ricci
tensor map back.  The payloads are compared with the per-scalar route, which
a test gets by making the solve return None.
"""

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aqslie.io as aqio
import aqslie.lie_core as lie_core
from aqslie.acm import AcmStructure, classify_structure, conjugate_structure, rational_rescaling
from aqslie.acm import rescaled
from aqslie.classifier import classify_nilpotent_aqs
from aqslie.cli import main
from aqslie.constructors import weighted_heisenberg_2n1, weighted_heisenberg_4n1
from aqslie.lie_core import bracket
from aqslie.linalg import identity, inverse, mat_eq, mat_mul, mat_vec, random_unimodular, transpose
from aqslie.linalg import vec_eq
from aqslie.scalars import Ext, s_sqrt
from floatcopy import float_structure
from oracles import eager_mapped_residuals

CLASSES = (1, 2, 3, 5, 6, 10, 15, 30)
SQRT_WEIGHTS = [Ext.of_sqrt(2), Fraction(1), Fraction(3, 2) * Ext.of_sqrt(5)]

BASES = {
    "h9c": lambda: conjugate_structure(
        weighted_heisenberg_4n1(2, [1, 2])[1][0], random_unimodular(9, random.Random(3))),
    "h13": lambda: weighted_heisenberg_4n1(3, [1, 2, 3])[1][0],
}
# the dense conjugation is slow on the per-scalar route: Betti numbers in low degrees only
COMMANDS = {"h9c": (["classify"], ["curvature"], ["cohomology", "--degrees", "0,1,2"]),
            "h13": (["classify"], ["curvature"], ["cohomology"])}


def _payload_digest(argv: list[str]) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--json"])
    report = json.loads(out.getvalue())
    text = json.dumps(report["payload"], sort_keys=True, separators=(",", ":"))
    return code, report["error"], hashlib.sha256(text.encode("utf-8")).hexdigest()


def _check_push_forward(T, iso) -> None:
    """Criterion 4's checks of F against the input T, on F as returned."""
    F = iso.F_mat()
    target_L, (_, t2, _) = weighted_heisenberg_4n1(iso.n, list(iso.weights))
    assert mat_eq(mat_mul(F, mat_mul(T.phi_mat(), inverse(F))), t2.phi_mat())
    assert vec_eq(mat_vec(F, T.xi_vec()), t2.xi_vec())
    assert vec_eq(mat_vec(transpose(F), t2.eta_row()), T.eta_row())
    assert mat_eq(mat_mul(transpose(F), mat_mul(t2.g_mat(), F)), T.g_mat())
    cols = transpose(F)
    for a in range(T.L.dim):
        for b in range(a + 1, T.L.dim):
            lhs = mat_vec(F, bracket(T.L, T.L.basis_vector(a), T.L.basis_vector(b)))
            assert vec_eq(lhs, bracket(target_L, cols[a], cols[b]))


@pytest.mark.parametrize("base,examples", [("h9c", 2), ("h13", 3)])
def test_rescaled_rational_structures_give_the_per_scalar_payloads(base, examples, tmp_path):
    S = BASES[base]()

    @settings(max_examples=examples, derandomize=True, deadline=None)
    @given(st.lists(st.sampled_from(CLASSES), min_size=S.L.dim, max_size=S.L.dim)
           .filter(lambda d: any(x > 1 for x in d)))
    def check(d):
        # T is S in the basis e_k / sqrt(d_k): one term per entry, radicands that factor
        T = rescaled(S, [s_sqrt(Fraction(1, x)) for x in d], [s_sqrt(Fraction(x)) for x in d])
        assert any(isinstance(x, Ext) for row in T.phi + T.g for x in row)
        assert rational_rescaling(T) is not None
        path = tmp_path / "T.json"
        path.write_text(aqio.dumps(aqio.structure_to_json(T)), "utf-8")
        for command in COMMANDS[base]:
            argv = [command[0], str(path)] + command[1:]
            fast = _payload_digest(argv)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(lie_core, "square_classes", lambda n, entries: None)
                assert _payload_digest(argv) == fast, (d, command)
            assert fast[0] == 0, (d, command, fast)
        _check_push_forward(T, classify_nilpotent_aqs(T))

    check()


def test_the_square_root_weights_rescale_where_their_entries_factor():
    _, (S, c1, c2) = weighted_heisenberg_4n1(3, SQRT_WEIGHTS)
    assert rational_rescaling(S) is not None and rational_rescaling(c1) is not None
    r = rational_rescaling(S)
    assert all(isinstance(x, Fraction) for M in (r.S.phi, r.S.g) for row in M for x in row)
    assert all(isinstance(v, Fraction) for _, es in r.S.L.brackets for _, v in es)
    # phi_3 pairs tau_r with tau_{3n+r}, whose bracket is 2 w_r xi: sqrt(2) for r = 1
    assert rational_rescaling(c2) is None
    _, S7 = weighted_heisenberg_2n1(3, SQRT_WEIGHTS)
    # phi pairs tau_1 and tau_4, and [tau_1, tau_4] = 2 sqrt(2) xi
    assert rational_rescaling(S7) is None
    assert S7.L.sqrt_basis() is not None  # the algebra alone rescales, for cohomology


def _sqrt_document_structures(family: str) -> list:
    """The structures of the square-root-weight document of family, read back:
    S and both companions for 4n1, S for 2n1."""
    if family == "4n1":
        _, (S, c1, c2) = weighted_heisenberg_4n1(3, SQRT_WEIGHTS)
        doc = aqio.structure_to_json(S, companions=[c1.phi_mat(), c2.phi_mat()])
    else:
        doc = aqio.structure_to_json(weighted_heisenberg_2n1(3, SQRT_WEIGHTS)[1])
    S, companions = aqio.read(aqio.loads(aqio.dumps(doc)), "acm_structure")[1]
    return [S, *companions]


def _not_closed():
    # [xi, b_1] = b_1 and Phi(b_1, b_2) = 1: d Phi != 0, in the basis (1, sqrt(2), 3 sqrt(3))
    L = lie_core.LieAlgebra.from_brackets(3, {(0, 1): {1: 1}}, check=True)
    phi = [[Fraction(0)] * 3 for _ in range(3)]
    phi[2][1], phi[1][2] = Fraction(1), Fraction(-1)
    S = AcmStructure.make(L, phi, L.basis_vector(0), L.basis_vector(0), identity(3))
    up = [Fraction(1), Ext.of_sqrt(2), 3 * Ext.of_sqrt(3)]
    return rescaled(S, up, [1 / x for x in up])


def _xi_class_2():
    # the rational aqS h9 with xi scaled by 1 / sqrt(2): N_phi = 2 d eta (x) xi lives
    # in the row of xi, whose scale up_0 = sqrt(2) maps the largest entry back
    S = weighted_heisenberg_4n1(2, [1, 2])[1][0]
    up = [Ext.of_sqrt(2)] + [Fraction(1)] * 8
    return rescaled(S, up, [1 / x for x in up])


MAP_BACK_CASES = {
    **{f"4n1-{i}": (lambda i=i: _sqrt_document_structures("4n1")[i]) for i in range(3)},
    "2n1": lambda: _sqrt_document_structures("2n1")[0],
    "not-closed": _not_closed,
    "xi-class-2": _xi_class_2,
}


@pytest.mark.parametrize("name", sorted(MAP_BACK_CASES))
def test_residuals_map_back_as_the_eager_map_did(name):
    # a column's scale made only where the column is nonzero: the same residuals,
    # by str, as every scale and entry mapped back first (the 4n1 S and first
    # companion rescale, the structure with d Phi != 0, and the h9 whose largest
    # N_phi entry is in a row scaled by sqrt(2); the others are read as they are)
    S, reference = MAP_BACK_CASES[name](), MAP_BACK_CASES[name]()
    got, want = classify_structure(S).residuals, eager_mapped_residuals(reference)
    assert {k: str(x) for k, x in got.items()} == {k: str(x) for k, x in want.items()}
    rescaling = rational_rescaling(S)
    assert (rescaling is not None) == (name in ("4n1-0", "4n1-1", "not-closed", "xi-class-2"))
    if name == "xi-class-2":
        assert rescaling.up[0] == Ext.of_sqrt(2) and str(got["n_phi"]) == "4*sqrt(2)"
    assert (got["d_phi"] != 0) == (name == "not-closed")


def test_a_rescaled_classify_makes_few_tower_products(monkeypatch):
    # the d Phi triple scales and the pair scales of all-zero columns are not
    # made: 399 Ext products when every scale was built before any was read
    import aqslie.scalars as scalars

    S = _sqrt_document_structures("4n1")[0]
    real, products = scalars._product, []
    monkeypatch.setattr(scalars, "_product", lambda a, b: products.append(1) or real(a, b))
    classify_structure(S)
    assert 0 < len(products) <= 59


def test_multi_term_and_float_entries_keep_the_per_scalar_route():
    _, (S, _, _) = weighted_heisenberg_4n1(1, [1 + Ext.of_sqrt(2)])
    assert rational_rescaling(S) is None
    _, (S, _, _) = weighted_heisenberg_4n1(3, SQRT_WEIGHTS)
    assert rational_rescaling(float_structure(S)) is None
    # rational input never reaches the elimination
    assert rational_rescaling(BASES["h13"]()) is None


def test_a_classify_eliminates_the_ad_columns_once(monkeypatch):
    # the center and the lower central series are kept on the algebra, and the
    # quotient test reads the series' step (center R xi: [g, g] in R xi iff
    # [g, [g, g]] = 0); 641 rows went through _rref_int when it eliminated the
    # ad columns again, 472 when the center and the series eliminated every
    # stacked ad row and column (169 each) rather than one primitive row per line
    import aqslie.linalg as linalg

    S = conjugate_structure(BASES["h13"](), random_unimodular(13, random.Random(7)))
    real, rows = linalg._rref_int, []
    monkeypatch.setattr(linalg, "_rref_int", lambda A: rows.append(len(A)) or real(A))
    classify_nilpotent_aqs(S)
    assert sum(rows) <= 150, rows


def test_a_classify_reads_no_characteristic_polynomial(monkeypatch, tmp_path):
    # the eigenvalues of psi^2 (and of A = phi psi for the qS h7) come from
    # Krylov minimal polynomials, of the rational matrix of the same map on
    # tower input: no char_poly and no determinant, on a conjugated h13, on
    # the h9c rescaled by square roots on the per-scalar route, and on the qS
    # h7 with square-root weights, whose spectrum is irrational
    import aqslie.linalg as linalg
    import aqslie.tower as tower

    S = conjugate_structure(BASES["h13"](), random_unimodular(13, random.Random(7)))
    d = [2, 3, 1, 5, 6, 1, 10, 1, 15]
    T = rescaled(BASES["h9c"](), [s_sqrt(Fraction(1, x)) for x in d],
                 [s_sqrt(Fraction(x)) for x in d])
    _, S7 = weighted_heisenberg_2n1(3, SQRT_WEIGHTS)
    path = tmp_path / "s7.json"
    path.write_text(aqio.dumps(aqio.structure_to_json(S7)), "utf-8")
    calls = []
    for module, name in ((linalg, "char_poly"), (linalg, "_bareiss_det"), (tower, "restricted")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, real=real, name=name: calls.append(name)
                            or real(*a))
    assert classify_nilpotent_aqs(S).weights == (3, 2, 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lie_core, "square_classes", lambda n, entries: None)
        assert classify_nilpotent_aqs(T).weights == (2, 1)
    assert _payload_digest(["classify", str(path)])[:2] == (3, {
        "code": "IrrationalSpectrum", "family": "precondition",
        "message": "minimal polynomial does not split over the rationals (residual degree 2)"})
    assert calls == ["restricted", "restricted"]


def test_xi_sectional_curvatures_of_a_rescaled_structure_run_on_integers(monkeypatch):
    # a multiple of b_k maps to the rescaled b_k itself (K(cX, Y) = K(X, Y)),
    # not to a one-term tower vector whose products fold per scalar; a general
    # vector keeps the diagonal map
    import aqslie.linalg as linalg
    from aqslie.acm import curvature, sectional_curvatures

    S = weighted_heisenberg_4n1(3, SQRT_WEIGHTS)[1][0]
    data, n = curvature(S), S.L.dim
    basis = [S.L.basis_vector(i) for i in range(n)]
    scaled = [[x * Ext.of_sqrt(3) for x in v] for v in basis]
    general = [a + b for a, b in zip(basis[1], basis[-1])]
    want = sectional_curvatures(S, data, S.xi_vec(), basis + [general])
    real, folds = linalg._fold, []
    monkeypatch.setattr(linalg, "_fold", lambda *a, **k: folds.append(1) or real(*a, **k))
    assert repr(sectional_curvatures(S, data, S.xi_vec(), scaled)) == repr(want[:n])
    assert folds == []
    assert repr(sectional_curvatures(S, data, S.xi_vec(), [general])) == repr(want[n:])
