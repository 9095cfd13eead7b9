"""Float mode: the same pipelines under the global tolerance."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aqslie.io as aqio
from aqslie.acm import classify_structure, curvature
from aqslie.adapted import adapted_frame
from aqslie.classifier import classify_nilpotent_aqs
from aqslie.constructors import weighted_heisenberg_4n1
from aqslie.errors import InputError
from aqslie.scalars import DEFAULT_TOLERANCE, get_tolerance, set_tolerance
from floatcopy import float_doc, float_structure
from oracles import psi_squared_spectrum


def _heisenberg_doc(n, weights):
    return aqio.structure_to_json(weighted_heisenberg_4n1(n, weights)[1][0])


def test_float_structure_classifies():
    doc = float_doc(_heisenberg_doc(2, [1, 2]))
    S, _ = aqio.structure_from_json(doc)
    assert isinstance(S.phi[1][1], float)
    assert classify_structure(S).has("AntiQuasiSasakian")
    spec = psi_squared_spectrum(S)
    assert [(round(float(e), 9), m) for e, m in spec] == [(-4.0, 4), (-1.0, 4)]
    fr = adapted_frame(S)
    assert [round(float(w), 9) for w in fr.weights] == [2.0, 1.0]
    iso = classify_nilpotent_aqs(S)
    assert [round(float(w), 9) for w in iso.weights] == [2.0, 1.0]


def test_float_non_identity_metric_spectrum():
    # conjugated structure: g = Q^T Q != I, so psi^2 is only g-symmetric
    # and the float spectrum must come from the generalized eigenproblem
    import random

    from aqslie.acm import conjugate_structure
    from aqslie.linalg import random_unimodular

    rng = random.Random(5)
    _, (S1, _, _) = weighted_heisenberg_4n1(2, [1, 2])
    Q = random_unimodular(9, rng)
    Sc = conjugate_structure(S1, Q)
    doc = float_doc(aqio.structure_to_json(Sc))
    Sf, _ = aqio.structure_from_json(doc)
    assert any(abs(float(Sf.g[i][j])) > 1e-9 for i in range(9) for j in range(9) if i != j)
    spec = psi_squared_spectrum(Sf)
    assert [(round(float(e), 6), m) for e, m in spec] == [(-4.0, 4), (-1.0, 4)]
    iso = classify_nilpotent_aqs(Sf)
    assert [round(float(w), 6) for w in iso.weights] == [2.0, 1.0]


def test_float_qs_route_non_identity_metric():
    # same generalized-eigenproblem path for the quasi-Sasakian classifier;
    # harsh conjugations inflate entries to ~1e3, so the honest remedy at
    # fixed absolute tolerance is a commensurate tau
    import random

    from aqslie.acm import conjugate_structure
    from aqslie.classifier import classify_nilpotent_qs
    from aqslie.constructors import weighted_heisenberg_2n1
    from aqslie.linalg import random_unimodular

    rng = random.Random(8)
    _, S = weighted_heisenberg_2n1(2, [1, 3])
    Q = random_unimodular(5, rng)
    Sc = conjugate_structure(S, Q)
    doc = float_doc(aqio.structure_to_json(Sc))
    Sf, _ = aqio.structure_from_json(doc)
    old = get_tolerance()
    try:
        set_tolerance(1e-7)
        iso = classify_nilpotent_qs(Sf)
        assert [round(float(w), 6) for w in iso.weights] == [3.0, 1.0]
    finally:
        set_tolerance(old)


def test_float_curvature_within_tolerance():
    doc = float_doc(_heisenberg_doc(1, [1]))
    S, _ = aqio.structure_from_json(doc)
    data = curvature(S)
    assert abs(float(data.scalar) + 4.0) <= 1e-9


def test_tolerance_absorbs_small_noise():
    doc = float_doc(_heisenberg_doc(1, [1]))
    # inject noise below the default tolerance
    doc["phi"][2][1] = repr(float(doc["phi"][2][1]) + 2e-10)
    S, _ = aqio.structure_from_json(doc)
    assert classify_structure(S).has("AntiQuasiSasakian")


def test_tolerance_flags_large_noise():
    doc = float_doc(_heisenberg_doc(1, [1]))
    doc["phi"][2][1] = repr(float(doc["phi"][2][1]) + 1e-4)
    S, _ = aqio.structure_from_json(doc)
    from aqslie.acm import validate_acm

    assert not validate_acm(S).passed


def test_tolerance_is_configurable():
    old = get_tolerance()
    try:
        set_tolerance(1e-2)
        doc = float_doc(_heisenberg_doc(1, [1]))
        doc["phi"][2][1] = repr(float(doc["phi"][2][1]) + 1e-4)
        S, _ = aqio.structure_from_json(doc)
        from aqslie.acm import validate_acm

        assert validate_acm(S).passed
    finally:
        set_tolerance(old)


def test_cli_float_rounding_beyond_tolerance_is_a_precondition(tmp_path, capsys):
    # conjugation by random_unimodular(9, Random(1)) grows the metric entries
    # to a few hundred; float rounding in the Koszul solve then exceeds the
    # absolute default tolerance, which is a limit of the input (exit 3),
    # not a contradiction in the theory (exit 4)
    import random

    from aqslie.acm import conjugate_structure
    from aqslie.cli import main
    from aqslie.linalg import random_unimodular

    _, (S1, _, _) = weighted_heisenberg_4n1(2, [1, 2])
    Sc = conjugate_structure(S1, random_unimodular(9, random.Random(1)))
    doc = float_doc(aqio.structure_to_json(Sc))
    path = tmp_path / "h9_float.json"
    path.write_text(aqio.dumps(doc), "utf-8")
    old = get_tolerance()
    try:
        for command in ("classify", "curvature"):
            assert main([command, str(path), "--json"]) == 3
            error = json.loads(capsys.readouterr().out)["error"]
            assert error["code"] == "ToleranceExceeded"
            assert error["family"] == "precondition"
            assert "absolute tolerance 1e-09" in error["message"]
            assert "--tolerance" in error["message"]
        # the remedy the message names
        assert main(["classify", str(path), "--json", "--tolerance", "1e-6"]) == 0
        capsys.readouterr()
    finally:
        set_tolerance(old)


def test_cli_float_isomorphism_certificate_beyond_tolerance_is_a_precondition(tmp_path, capsys):
    # the same conjugated float h9 at --tolerance 1e-7 passes the Koszul
    # certificates but not the isomorphism check: rounding again, so exit 3
    import random

    from aqslie.acm import conjugate_structure
    from aqslie.cli import main
    from aqslie.linalg import random_unimodular

    _, (S1, _, _) = weighted_heisenberg_4n1(2, [1, 2])
    doc = aqio.structure_to_json(conjugate_structure(S1, random_unimodular(9, random.Random(1))))
    path = tmp_path / "h9_float.json"
    path.write_text(aqio.dumps(float_doc(doc)), "utf-8")
    old = get_tolerance()
    try:
        assert main(["classify", str(path), "--json", "--tolerance", "1e-7"]) == 3
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["code"] == "ToleranceExceeded"
        assert error["message"].startswith("F is not a Lie algebra morphism")
        assert "absolute tolerance 1e-07" in error["message"]
        assert "--tolerance" in error["message"]
    finally:
        set_tolerance(old)


def test_float_copy_routes_agree():
    # the JSON-document route and the LieAlgebra.table() route of floatcopy
    # give the same float structure, bit for bit
    import random

    from aqslie.acm import conjugate_structure
    from aqslie.linalg import random_unimodular

    h9 = weighted_heisenberg_4n1(2, [1, 2])[1][0]
    for S in (h9, conjugate_structure(h9, random_unimodular(9, random.Random(1)))):
        via_doc, _ = aqio.structure_from_json(float_doc(aqio.structure_to_json(S)))
        via_table = float_structure(S)
        fields = lambda T: (T.L.dim, T.L.brackets, T.L.basis_names, T.L.mode,  # noqa: E731
                            T.phi, T.xi, T.eta, T.g)
        assert repr(fields(via_doc)) == repr(fields(via_table))
        assert isinstance(via_doc.g[0][0], float)


def _scalars(x):
    """Every entry of nested lists and tuples."""
    if isinstance(x, (list, tuple)):
        for y in x:
            yield from _scalars(y)
    else:
        yield x


def _one_field_documents(tmp_path) -> dict:
    """{name: path}: h9 with its companions, h13, the qS h9, the conjugated
    h9, su3 and su2, each exact and as its float copy (named with an f)."""
    import random

    from aqslie.acm import conjugate_structure
    from aqslie.constructors import su2, su3, weighted_heisenberg_2n1
    from aqslie.linalg import random_unimodular
    from floatcopy import float_algebra_doc

    _, (h9, h9b, h9c) = weighted_heisenberg_4n1(2, [1, 2])
    docs = {
        "h9": aqio.structure_to_json(h9, companions=[h9b.phi_mat(), h9c.phi_mat()]),
        "h13": _heisenberg_doc(3, [1, 2, 3]),
        "qs9": aqio.structure_to_json(weighted_heisenberg_2n1(4, [1, 2, 3, 4])[1]),
        "h9c1": aqio.structure_to_json(
            conjugate_structure(h9, random_unimodular(9, random.Random(1)))),
    }
    docs.update({f"f{name[1:] if name[0] == 'h' else name}": float_doc(doc)
                 for name, doc in docs.items()})
    for name, algebra in (("su3", su3()), ("su2", su2())):
        docs[name] = aqio.algebra_to_json(algebra)
        docs[f"f{name}"] = float_algebra_doc(docs[name])
    paths = {}
    for name, doc in docs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(aqio.dumps(doc), "utf-8")
    return paths


def test_each_kernel_call_holds_one_field(tmp_path, monkeypatch, capsys):
    # float mode makes its constants in floats: no product, entrywise or
    # elimination call of a float command meets an exact scalar (an int, a
    # Fraction, an Ext) beside a float, and no call of an exact command meets
    # a float; every scalar string of a float payload is a float repr
    from aqslie import linalg
    from aqslie.cli import main

    calls, mixed = [], []
    for name in ("_fold", "_entrywise", "_reduced"):
        def kernel(*args, real=getattr(linalg, name), name=name, **kwargs):
            kinds = {type(x) for x in _scalars(list(args[:2]))}  # argv, floats: the run's
            calls.append(name)
            if float in kinds and (len(kinds) > 1 or not floats):
                mixed.append((argv[0], argv[1].rsplit("/", 1)[-1], name, sorted(map(str, kinds))))
            return real(*args, **kwargs)
        monkeypatch.setattr(linalg, name, kernel)
    runs = [["invariant-forms", "--algebra", "{su}", "--torus", "{torus}"], ["cohomology", "{su}"]]
    runs += [[command, "{h}"] for command in ("check", "classify", "curvature", "cohomology")]
    old = get_tolerance()
    try:
        for name, path in _one_field_documents(tmp_path).items():
            floats = name.startswith("f")
            for template in runs:
                if ("su" in name) != ("{su}" in template):
                    continue
                torus = "1,2" if "su3" in name else "3"  # d vanishes on the pairs of m for su2
                argv = [str(path) if a in ("{h}", "{su}") else torus if a == "{torus}" else a
                        for a in template]
                set_tolerance(1e-6 if name == "f9c1" else old)  # its certificates need it
                assert main(argv + ["--json"]) == 0, (name, argv)
                payload = json.loads(capsys.readouterr().out)["payload"]
                if floats and argv[0] != "check":  # check's passing residual is the exact 0
                    for text in filter(_is_float_text, _payload_strings(payload)):
                        assert repr(float(text)) == text, (name, argv[0], text)
    finally:
        set_tolerance(old)
    assert len(calls) > 2000 and mixed == []


def _payload_strings(x):
    if isinstance(x, dict):
        x = list(x.values())
    if isinstance(x, list):
        for y in x:
            yield from _payload_strings(y)
    elif isinstance(x, str):
        yield x


def _is_float_text(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def test_float_overflow_is_a_precondition_never_a_verdict_or_a_payload(tmp_path, capsys):
    # weights 10^200 and 1: ad products reach inf, and inf - inf is nan.  The
    # operator identities fail on that nan (not on an exact zero beside it), and
    # curvature refuses to print inf or nan; both exit 3, never 4 or 0
    from aqslie.cli import main

    S = weighted_heisenberg_4n1(2, [10**200, 1])[1][0]
    path = tmp_path / "overflow.json"
    path.write_text(aqio.dumps(float_doc(aqio.structure_to_json(S))), "utf-8")
    for command, message in (
        ("classify", "operator identity psi_A_anticommute at float precision: residual nan "
                     "is not finite (float overflow); rerun in exact mode"),
        ("curvature", "float overflow: a result is nan; rerun in exact mode"),
    ):
        assert main([command, str(path), "--json"]) == 3
        report = json.loads(capsys.readouterr().out)
        assert report["payload"] is None and report["error"]["message"] == message
        assert report["error"]["family"] == "precondition"


def test_float_weights_make_a_float_mode_target():
    # the normal-form target of a float frame: a float-mode algebra with float
    # phi, xi and g; the mode holds constants of its field only
    from aqslie.exterior import rank_of_eta
    from aqslie.lie_core import LieAlgebra

    L, structures = weighted_heisenberg_4n1(2, [2.0, 1.0])
    assert L.mode == "float" and L.basis_vector(1) == [0.0, 1.0] + [0.0] * 7
    for S in structures:
        tensors = [*_scalars(S.phi), *S.xi, *S.eta, *_scalars(S.g)]
        assert {type(x) for x in tensors} == {float}
    assert rank_of_eta(L, structures[0].eta_form()).is_maximal
    for table, mode in (({(0, 1): {2: 0.5}}, "exact"), ({(0, 1): {2: 1}}, "float")):
        with pytest.raises(InputError, match=f"{mode} mode"):
            LieAlgebra.from_brackets(3, table, mode=mode)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 3), st.sampled_from([1e-9, 1e-6]), st.data())
def test_a_float_zero_test_is_the_verdict_of_the_magnitude(n, tol, data):
    # the class tags read X.is_zero(), a residual's magnitude is max |X|: on
    # floats both give the verdict of s_is_zero, the tolerance edge, an inf and
    # a nan included
    from aqslie.linalg import MatOver, vec_is_zero
    from aqslie.scalars import s_is_zero

    edge = st.sampled_from([0.0, -0.0, 1e-12, -1e-9, 1e-9, 1.5e-9, -1e-6, 2e-6,
                            math.inf, -math.inf, math.nan])
    N = data.draw(st.lists(st.lists(st.floats(-1e-5, 1e-5) | edge, min_size=n, max_size=n),
                           max_size=3))
    set_tolerance(tol)
    try:
        X = MatOver(N)
        assert X.is_zero() == s_is_zero(X.max_abs()) == vec_is_zero([x for r in N for x in r])
    finally:
        set_tolerance(DEFAULT_TOLERANCE)


def test_an_empty_float_table_is_read_as_floats():
    # an abelian float algebra has no constant to decide its field by: its empty
    # table is a float table, so the pair brackets meet the float tensors and the
    # ad matrices and Killing form are floats
    from aqslie.acm import AcmStructure, classify_structure
    from aqslie.lie_core import LieAlgebra, basis_brackets, killing_form

    L = LieAlgebra.from_brackets(3, {}, mode="float")
    phi = [[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]]
    I3 = [[float(i == j) for j in range(3)] for i in range(3)]
    S = AcmStructure.make(L, phi, [1.0, 0.0, 0.0], [1.0, 0.0, 0.0], I3)
    cls = classify_structure(S)
    assert cls.tags == {"Cokahler", "QuasiSasakian", "AntiQuasiSasakian"}
    assert repr(cls.residuals) == repr({"d_phi": 0.0, "d_eta": 0.0, "n_phi": 0.0,
                                        "anti_normal": 0.0, "contact_metric": 2.0})
    assert repr(basis_brackets(L, [(0, 1)]).mat()) == repr([[0.0, 0.0, 0.0]])
    assert repr(killing_form(L).matrix) == repr(((0.0,) * 3,) * 3)
