"""File formats and the command-line front end."""

import json
from fractions import Fraction as F
from pathlib import Path

import pytest

import aqslie.io as aqio
from aqslie.cli import _build_parser, main
from aqslie.constructors import (
    standard_kahler,
    su3,
    weighted_heisenberg_2n1,
    weighted_heisenberg_4n1,
)
from aqslie.errors import InputError, JacobiError
from aqslie.exterior import KForm
from oracles import kahler_to_json, matrix_to_json


def test_algebra_round_trip_byte_identical():
    for L in (su3(), weighted_heisenberg_4n1(2, [1, 2])[0]):
        text = aqio.dumps(aqio.algebra_to_json(L))
        L2 = aqio.algebra_from_json(aqio.loads(text))
        assert aqio.dumps(aqio.algebra_to_json(L2)) == text
        assert L2.basis_names == L.basis_names


def test_shipped_su3_file_is_canonical():
    from importlib import resources

    text = resources.files("aqslie").joinpath("data/su3.json").read_text("utf-8")
    L = aqio.algebra_from_json(aqio.loads(text))
    assert aqio.dumps(aqio.algebra_to_json(L)) == text


def test_structure_round_trip_with_companions():
    _, (S1, S2, S3) = weighted_heisenberg_4n1(1, [1])
    doc = aqio.structure_to_json(S1, companions=[S2.phi_mat(), S3.phi_mat()])
    text = aqio.dumps(doc)
    S1b, comps = aqio.structure_from_json(aqio.loads(text))
    assert len(comps) == 2
    assert aqio.dumps(
        aqio.structure_to_json(S1b, companions=[c.phi_mat() for c in comps])
    ) == text


def test_form_and_kahler_round_trip():
    w = KForm.make(2, 4, {(0, 1): F(3, 2), (2, 3): F(-1)})
    text = aqio.dumps(aqio.form_to_json(w))
    w2 = aqio.form_from_json(aqio.loads(text))
    assert aqio.dumps(aqio.form_to_json(w2)) == text
    H = standard_kahler(2)
    ktext = aqio.dumps(kahler_to_json(H))
    H2 = aqio.kahler_from_json(aqio.loads(ktext))
    assert aqio.dumps(kahler_to_json(H2)) == ktext


def test_reader_rejects_duplicates_and_bad_order():
    base = {
        "kind": "lie_algebra",
        "mode": "exact",
        "dim": 3,
        "basis_names": ["a", "b", "c"],
    }
    dup = dict(base)
    dup["brackets"] = [
        {"i": 1, "j": 2, "coeffs": {"3": "1"}},
        {"i": 1, "j": 2, "coeffs": {"3": "2"}},
    ]
    with pytest.raises(InputError):
        aqio.algebra_from_json(dup)
    swapped = dict(base)
    swapped["brackets"] = [{"i": 2, "j": 1, "coeffs": {"3": "1"}}]
    with pytest.raises(InputError):
        aqio.algebra_from_json(swapped)
    jacobi = dict(base)
    jacobi["brackets"] = [
        {"i": 1, "j": 2, "coeffs": {"3": "1"}},
        {"i": 2, "j": 3, "coeffs": {"2": "1"}},
    ]
    with pytest.raises(JacobiError):
        aqio.algebra_from_json(jacobi)


def test_reader_rejects_bad_scalars_and_modes():
    doc = {
        "kind": "lie_algebra",
        "mode": "exact",
        "dim": 2,
        "basis_names": ["a", "b"],
        "brackets": [{"i": 1, "j": 2, "coeffs": {"1": "zzz"}}],
    }
    with pytest.raises(InputError):
        aqio.algebra_from_json(doc)
    doc2 = dict(doc)
    doc2["mode"] = "fuzzy"
    with pytest.raises(InputError):
        aqio.algebra_from_json(doc2)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _write(tmp_path: Path, name: str, doc: dict) -> str:
    p = tmp_path / name
    p.write_text(aqio.dumps(doc), "utf-8")
    return str(p)


def _structure_file(tmp_path, n=1, weights=(1,), with_companions=True) -> str:
    _, (S1, S2, S3) = weighted_heisenberg_4n1(n, list(weights))
    comps = [S2.phi_mat(), S3.phi_mat()] if with_companions else None
    return _write(tmp_path, "s.json", aqio.structure_to_json(S1, companions=comps))


def test_cli_classify_full_stack(tmp_path, capsys):
    path = _structure_file(tmp_path, 1, (1,))
    code = main(["classify", path, "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["error"] is None
    tags0 = out["payload"]["structures"][0]["tags"]
    assert "AntiQuasiSasakian" in tags0 and "DoubleAqsSasakian" in tags0
    assert out["payload"]["structures"][2]["tags"] == [
        "ContactMetric",
        "QuasiSasakian",
        "Sasakian",
    ]
    assert out["payload"]["normal_form"]["weights"] == ["1"]
    assert out["payload"]["rank"]["maximal"] is True


def test_cli_classify_qs_family(tmp_path, capsys):
    _, S = weighted_heisenberg_2n1(2, [1, 3])
    path = _write(tmp_path, "qs.json", aqio.structure_to_json(S))
    code = main(["classify", path, "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["payload"]["normal_form"]["family"] == "2n+1"
    assert out["payload"]["normal_form"]["weights"] == ["3", "1"]


ALGEBRA_DOC = {
    "kind": "lie_algebra",
    "mode": "exact",
    "dim": 3,
    "basis_names": ["a", "b", "c"],
    "brackets": [{"i": 1, "j": 2, "coeffs": {"3": "1"}}],
}


def _bracket(**fields) -> dict:
    return {"brackets": [{"i": 1, "j": 2, "coeffs": {"3": "1"}, **fields}]}


# case: (input, change, what the message names).  "algebra" and "structure"
# rows update ALGEBRA_DOC or the h5 structure document and run `check`;
# "form" rows update the cocycle of an `extend`; "argv" rows are command
# lines whose {structure} and {matrix} stand for valid files of that kind.
# Every row exits 2 with InputError, the "scalar-" rows with its subclass
# ScalarParseError.
MALFORMED = {
    "bracket-target-not-int": ("algebra", _bracket(coeffs={"x": "1"}), "brackets[0].coeffs"),
    "bracket-coeffs-a-list": ("algebra", _bracket(coeffs=["1"]), "brackets[0].coeffs"),
    "bracket-index-not-integral": ("algebra", _bracket(i=1.7, j=2.2), "brackets[0].i"),
    "bracket-index-a-string": ("algebra", _bracket(i="1"), "brackets[0].i"),
    "bracket-index-a-bool": ("algebra", _bracket(i=True), "brackets[0].i"),
    "basis-names-a-number": ("algebra", {"basis_names": 5}, "basis_names"),
    "basis-names-false": ("algebra", {"basis_names": False}, "basis_names"),
    "basis-names-empty": ("algebra", {"basis_names": []}, "basis_names"),
    "dim-a-bool": ("algebra", {"dim": True, "basis_names": ["a"], "brackets": []}, "dim"),
    "brackets-a-number": ("algebra", {"brackets": 5}, "brackets"),
    "brackets-null": ("algebra", {"brackets": None}, "brackets"),
    "companions-a-number": ("structure", {"companions": 5}, "companions"),
    "scalar-phi-cell-not-a-scalar": (
        "structure", {"phi": [["x" if (r, c) == (2, 3) else "0" for c in range(5)]
                              for r in range(5)]}, "phi[2][3]: bad exact scalar 'x'"),
    "term-without-indices": ("form", {"terms": [{"coeff": "1"}]}, "terms[0].indices"),
    "term-index-not-an-int": (
        "form", {"terms": [{"indices": [1, "b"], "coeff": "1"}]}, "terms[0].indices[1]"),
    "terms-a-number": ("form", {"terms": 5}, "terms"),
    "form-dim-and-degree-bools": (
        "form", {"dim": True, "degree": True, "terms": [{"indices": [1.9], "coeff": "1"}]}, "dim"),
    "invariant-forms-algebra-is-a-matrix": (
        "argv", ["invariant-forms", "--algebra", "{matrix}", "--torus", "1"], "kind"),
    "scalar-weights-item-not-a-scalar": (
        "argv", ["construct", "heisenberg", "--dim-family", "4n1", "--weights", "1,x"],
        "--weights: bad exact scalar 'x'"),
    "weights-with-an-empty-item": (
        "argv", ["construct", "heisenberg", "--dim-family", "4n1", "--weights", "1,,2"],
        "--weights"),
    "degrees-out-of-range": (
        "argv", ["cohomology", "{structure}", "--degrees", "0,6"], "--degrees"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_cli_malformed_input_exits_2(tmp_path, capsys, case):
    kind, change, where = MALFORMED[case]
    if kind == "algebra":
        argv = ["check", _write(tmp_path, "a.json", {**ALGEBRA_DOC, **change})]
    elif kind == "structure":
        _, (S1, _, _) = weighted_heisenberg_4n1(1, [1])
        argv = ["check", _write(tmp_path, "s.json", {**aqio.structure_to_json(S1), **change})]
    elif kind == "form":
        kpath = _write(tmp_path, "k.json", kahler_to_json(standard_kahler(2)))
        w = aqio.form_to_json(KForm.make(2, 4, {(0, 1): F(2), (2, 3): F(-2)}))
        wpath = _write(tmp_path, "w.json", {**w, **change})
        argv = ["extend", "--kahler", kpath, "--cocycle", wpath]
    else:
        files = {"structure": _structure_file(tmp_path),
                 "matrix": _write(tmp_path, "m.json", matrix_to_json([[F(1)]]))}
        argv = [arg.format(**files) for arg in change]
    code = main(argv + ["--json"])
    out = json.loads(capsys.readouterr().out)
    want = "ScalarParseError" if case.startswith("scalar-") else "InputError"
    assert code == 2 and out["error"]["code"] == want
    assert where in out["error"]["message"]


@pytest.mark.parametrize("bad", ["nan", "-inf", "1e400"])
def test_cli_float_algebra_with_a_non_finite_constant_exits_2(tmp_path, capsys, bad):
    doc = {**ALGEBRA_DOC, "mode": "float", "brackets": [{"i": 1, "j": 2, "coeffs": {"3": bad}}]}
    code = main(["check", _write(tmp_path, "f.json", doc), "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 2 and out["error"]["code"] == "ScalarParseError"


def test_cli_jacobi_error_names_the_triples_1_based(tmp_path, capsys):
    # [e1,e2] = e5, [e3,e4] = e5, [e1,e5] = e2 fails Jacobi only on (e1, e3, e4);
    # the message names it as the file does, the exception keeps it 0-based
    doc = {
        "kind": "lie_algebra",
        "mode": "exact",
        "dim": 5,
        "basis_names": [f"e{i}" for i in range(1, 6)],
        "brackets": [
            {"i": 1, "j": 2, "coeffs": {"5": "1"}},
            {"i": 3, "j": 4, "coeffs": {"5": "1"}},
            {"i": 1, "j": 5, "coeffs": {"2": "1"}},
        ],
    }
    code = main(["check", _write(tmp_path, "bad.json", doc), "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 2 and out["error"]["code"] == "JacobiError"
    assert "(1, 3, 4)" in out["error"]["message"]
    with pytest.raises(JacobiError) as err:
        aqio.algebra_from_json(doc)
    assert err.value.triples == [(0, 2, 3)]


def test_cli_exit_codes_taxonomy(tmp_path, capsys):
    # parse family: Jacobi violator -> 2
    bad = {
        "kind": "lie_algebra",
        "mode": "exact",
        "dim": 3,
        "basis_names": ["a", "b", "c"],
        "brackets": [
            {"i": 1, "j": 2, "coeffs": {"3": "1"}},
            {"i": 2, "j": 3, "coeffs": {"2": "1"}},
        ],
    }
    path = _write(tmp_path, "bad.json", bad)
    assert main(["check", path]) == 2
    capsys.readouterr()
    # precondition family: zero-weight Heisenberg -> 3
    zpath = _structure_file(tmp_path, 2, (1, 0))
    assert main(["classify", zpath]) == 3
    capsys.readouterr()
    # not nilpotent -> 3
    from aqslie.acm import AcmStructure
    from aqslie.constructors import su2_plus_abelian
    from aqslie.linalg import identity, zeros

    L = su2_plus_abelian()
    phi = zeros(5, 5)
    phi[2][1], phi[1][2] = F(1), F(-1)
    phi[4][3], phi[3][4] = F(1), F(-1)
    S = AcmStructure.make(L, phi, L.basis_vector(0), L.basis_vector(0), identity(5))
    spath = _write(tmp_path, "su2r2.json", aqio.structure_to_json(S))
    code = main(["classify", spath, "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 3 and out["error"]["code"] == "NotNilpotent"
    assert out["error"]["family"] == "precondition"


def test_cli_construct_and_check(tmp_path, capsys):
    out_file = tmp_path / "h9.json"
    code = main(
        [
            "construct",
            "heisenberg",
            "--dim-family",
            "4n1",
            "--weights",
            "1,2",
            "-o",
            str(out_file),
        ]
    )
    assert code == 0
    capsys.readouterr()
    assert main(["check", str(out_file)]) == 0
    capsys.readouterr()
    # document round trips byte-identically through the CLI writer
    text = out_file.read_text("utf-8")
    doc = aqio.loads(text)
    S, comps = aqio.structure_from_json(doc)
    assert aqio.dumps(
        aqio.structure_to_json(S, companions=[c.phi_mat() for c in comps])
    ) == text


def test_cli_curvature_and_cohomology(tmp_path, capsys):
    path = _structure_file(tmp_path, 1, (1,))
    code = main(["curvature", path, "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["payload"]["scalar"] == "-4"
    assert set(out["payload"]["xi_sectional"].values()) == {"1"}
    code = main(["cohomology", path, "--degrees", "1,2", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["payload"]["betti"] == {"1": 4, "2": 5}


EMPTY_ITEMS = ["", " ", " , ", "1,,2"]


@pytest.mark.parametrize("flag, value", [
    *(pytest.param("--degrees", v, id=v) for v in EMPTY_ITEMS),
    *(pytest.param(flag, v, id=f"{flag}={v}") for flag in ("--weights", "--torus")
      for v in EMPTY_ITEMS),
])
def test_cli_cohomology_empty_degrees_is_a_usage_error(tmp_path, capsys, flag, value):
    # only a missing --degrees means every degree; an empty item of any
    # comma list is an error, never skipped
    argv = {
        "--degrees": ["cohomology", _structure_file(tmp_path, 1, (1,))],
        "--weights": ["construct", "heisenberg", "--dim-family", "4n1"],
        "--torus": ["invariant-forms", "--algebra", "su3"],
    }[flag]
    code = main(argv + [flag, value, "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 2 and out["payload"] is None
    assert out["error"]["code"] == "InputError"
    assert out["error"]["message"] == f"bad {flag} list"


def test_cli_extend(tmp_path, capsys):
    H = standard_kahler(2)
    kpath = _write(tmp_path, "k.json", kahler_to_json(H))
    w = KForm.make(2, 4, {(0, 1): F(2), (2, 3): F(-2)})
    wpath = _write(tmp_path, "w.json", aqio.form_to_json(w))
    code = main(["extend", "--kahler", kpath, "--cocycle", wpath, "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    doc = out["payload"]["document"]
    S, _ = aqio.structure_from_json(doc)
    from aqslie.acm import classify_structure

    assert classify_structure(S).has("AntiQuasiSasakian")


def test_cli_invariant_forms(tmp_path, capsys):
    code = main(["invariant-forms", "--algebra", "su2", "--torus", "3", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    p = out["payload"]
    assert p["solution_dimension"] == 1
    assert p["type_11"]["anti_projection_zero"] is True
    code = main(["invariant-forms", "--algebra", "su3", "--torus", "1,2", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert out["payload"]["solution_dimension"] == 2
    assert len(out["payload"]["moment_elements"]) == 2


def test_cli_batch_mode(tmp_path, capsys):
    _structure_file(tmp_path, 1, (1,))
    _, S = weighted_heisenberg_2n1(1, [1])
    _write(tmp_path, "t.json", aqio.structure_to_json(S))
    code = main(["classify", "--batch", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    reports = sorted(tmp_path.glob("*.report.json"))
    assert len(reports) == 2
    for rp in reports:
        rep = json.loads(rp.read_text("utf-8"))
        assert rep["error"] is None and rep["payload"]["normal_form"]["weights"] == ["1"]


def _unwritable(tmp_path):
    # a report path that is a directory: the batch cannot write it
    _structure_file(tmp_path, 1, (1,))
    (tmp_path / "s.report.json").mkdir()
    return ["classify", "--batch", str(tmp_path)]


UNUSABLE_PATHS = {
    "construct-output": (lambda tmp_path: ["construct", "heisenberg", "--dim-family", "4n1",
                                           "--weights", "1", "-o", str(tmp_path / "no" / "x.json")],
                         "cannot write "),
    "batch-report": (_unwritable, "cannot write "),
    "batch-directory": (lambda tmp_path: ["classify", "--batch", str(tmp_path / "none")],
                        "not a directory: "),
}


@pytest.mark.parametrize("case", sorted(UNUSABLE_PATHS))
def test_cli_unusable_path_is_an_input_error_in_the_envelope(tmp_path, capsys, case):
    # a path the command cannot read or write is an InputError, exit 2: in the
    # envelope with --json, one line on stderr without it
    argv, message = UNUSABLE_PATHS[case]
    argv = argv(tmp_path)
    assert main(argv + ["--json"]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["payload"] is None and out["command"] == argv[0]
    assert out["error"]["code"] == "InputError" and out["error"]["family"] == "parse"
    assert out["error"]["message"].startswith(message)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"aqslie {argv[0]}: InputError (parse): {out['error']['message']}\n"


def test_cli_summaries_without_json(tmp_path, capsys):
    path = _structure_file(tmp_path, 1, (1,))
    assert main(["classify", path]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "aqslie classify: ok",
        "  structure 1: AntiQuasiSasakian, DoubleAqsSasakian",
        "  structure 2: AntiQuasiSasakian",
        "  structure 3: ContactMetric, QuasiSasakian, Sasakian",
        "  normal form: h^{4n+1} with weights (1)",
        "  rank 5 (maximal)",
    ]
    assert main(["curvature", path]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "aqslie curvature: ok",
        "  scalar curvature: -4",
        "  K(xi,tau1)=1, K(xi,tau2)=1, K(xi,tau3)=1, K(xi,tau4)=1",
    ]
    assert main(["invariant-forms", "--algebra", "su2", "--torus", "3"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "aqslie invariant-forms: ok",
        "  dim k = 1, dim m = 2, solution space dimension = 1",
        "  type (1,1): J ok = True, invariant = True, anti-invariant projection zero = True",
    ]


def test_cli_payload_determinism(tmp_path, capsys):
    path = _structure_file(tmp_path, 2, (1, 2))
    main(["classify", path, "--json"])
    first = json.loads(capsys.readouterr().out)["payload"]
    main(["classify", path, "--json"])
    second = json.loads(capsys.readouterr().out)["payload"]
    assert first == second


def _validate_against_schema(report: dict, schema: dict) -> list:
    """Minimal structural validator for the shipped report schema subset."""
    problems = []
    for field in schema["required"]:
        if field not in report:
            problems.append(f"missing {field}")
    types = {
        "string": str,
        "object": dict,
        "number": (int, float),
        "null": type(None),
    }
    for name, spec in schema["properties"].items():
        if name not in report:
            continue
        value = report[name]
        allowed = spec["type"] if isinstance(spec["type"], list) else [spec["type"]]
        if not any(isinstance(value, types[t]) for t in allowed):
            problems.append(f"{name} has wrong type")
        if "const" in spec and value != spec["const"]:
            problems.append(f"{name} != {spec['const']}")
        if name == "error" and isinstance(value, dict):
            for sub in spec["required"]:
                if sub not in value:
                    problems.append(f"error.{sub} missing")
            if value.get("family") not in spec["properties"]["family"]["enum"]:
                problems.append("error.family not in enum")
    return problems


def test_cli_reports_validate_against_shipped_schema(tmp_path, capsys):
    from importlib import resources

    schema = json.loads(
        resources.files("aqslie").joinpath("schema/report.schema.json").read_text("utf-8")
    )
    path = _structure_file(tmp_path, 1, (1,))
    main(["classify", path, "--json"])
    ok_report = json.loads(capsys.readouterr().out)
    assert _validate_against_schema(ok_report, schema) == []
    zpath = _structure_file(tmp_path, 2, (1, 0))
    main(["classify", zpath, "--json"])
    err_report = json.loads(capsys.readouterr().out)
    assert _validate_against_schema(err_report, schema) == []
    assert err_report["error"]["code"] == "NotMaximalRank"


def test_cli_classify_reads_stdin(tmp_path, capsys, monkeypatch):
    import io as _io

    _, (S1, S2, S3) = weighted_heisenberg_4n1(1, [1])
    text = aqio.dumps(
        aqio.structure_to_json(S1, companions=[S2.phi_mat(), S3.phi_mat()])
    )
    monkeypatch.setattr("sys.stdin", _io.TextIOWrapper(_io.BytesIO(text.encode())))
    code = main(["classify", "-", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["payload"]["double_aqs_sasakian"] is True
    assert out["input_digest"] is None  # stdin has no digestable file


def test_cli_reads_the_input_file_once(tmp_path, capsys, monkeypatch):
    # the digest is taken from the text that is parsed, in one read
    import aqslie.cli as cli

    path = _structure_file(tmp_path)
    reads = []
    read_text = cli._read_text
    monkeypatch.setattr(cli, "_read_text", lambda p: reads.append(p) or read_text(p))
    assert main(["check", path, "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert reads == [path]
    assert out["input_digest"] == aqio.digest(Path(path).read_text("utf-8"))


def test_cli_invariant_forms_with_j_file(tmp_path, capsys):
    # canonical J on su3/t^2 supplied as a matrix file
    from fractions import Fraction as Fr

    J = [[Fr(0)] * 6 for _ in range(6)]
    for p in range(3):
        J[2 * p + 1][2 * p] = Fr(1)
        J[2 * p][2 * p + 1] = Fr(-1)
    jpath = _write(tmp_path, "j.json", matrix_to_json(J))
    code = main(
        ["invariant-forms", "--algebra", "su3", "--torus", "1,2", "--J", jpath, "--json"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    t11 = out["payload"]["type_11"]
    assert t11["j_ok"] and t11["invariant"] and t11["anti_projection_zero"]


def test_cohomology_ranks_each_differential_once(tmp_path, capsys, monkeypatch):
    # every degree of h13: b_k and b_{k+1} share d_k, which is reduced once,
    # one torus weight block at a time; no (k, weight) block is ranked twice
    import aqslie.exterior as exterior

    h13 = weighted_heisenberg_4n1(3, [1, 2, 3])[0]
    weights = exterior._torus_weights(h13)
    blocks, ranked = [], {}
    real_columns, real_rank = exterior._d_columns, exterior.rank

    def columns(targets, den, monomials):
        blocks.append(monomials)
        return real_columns(targets, den, monomials)

    def counting(M):
        I = blocks[-1][0]  # the block whose columns were just built
        key = (len(I), sum(weights[i] for i in I))
        ranked[key] = ranked.get(key, 0) + 1
        return real_rank(M)

    monkeypatch.setattr(exterior, "_d_columns", columns)
    monkeypatch.setattr(exterior, "rank", counting)
    path = _structure_file(tmp_path, 3, (1, 2, 3))
    assert main(["cohomology", path, "--json"]) == 0
    betti = json.loads(capsys.readouterr().out)["payload"]["betti"]
    assert ranked and set(ranked.values()) == {1}
    # d_k: Lambda^k -> Lambda^{k+1} for k = 0..12; d_0 and d_12 are zero
    assert {k for k, _ in ranked} == set(range(1, 12))
    low = [1, 12, 65, 208, 429, 572, 429]  # Santharoubane's closed form for h_13
    assert [betti[str(k)] for k in range(14)] == low + low[::-1]
    monkeypatch.undo()
    assert betti == {str(k): exterior.ce_betti(h13, k) for k in range(14)}
    assert betti["2"] == betti["11"] and betti["6"] == betti["7"]


def test_cli_cohomology_on_algebra_file(tmp_path, capsys):
    from aqslie.constructors import su2

    path = _write(tmp_path, "su2.json", aqio.algebra_to_json(su2()))
    code = main(["cohomology", path, "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    # su(2) is semisimple: b1 = b2 = 0, b0 = b3 = 1
    assert out["payload"]["betti"] == {"0": 1, "1": 0, "2": 0, "3": 1}


def test_cli_invariant_forms_strict(tmp_path, capsys):
    # through the torus interface k is always the centralizer of its own
    # center, so --strict passes and emits no warnings
    code = main(["invariant-forms", "--algebra", "su3", "--torus", "1,2", "--strict", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["payload"]["warnings"] == []


def test_cli_global_flags_before_and_after_subcommand(tmp_path, capsys):
    from aqslie.scalars import get_tolerance, set_tolerance

    flags = ["--json", "--tolerance", "1e-3"]
    for argv in (flags + ["classify", "x"], ["classify", "x"] + flags):
        args = _build_parser().parse_args(argv)
        assert args.json is True and args.tolerance == 1e-3
    args = _build_parser().parse_args(["classify", "x"])
    assert args.json is False and args.tolerance is None
    with pytest.raises(SystemExit):
        _build_parser().parse_args(["classify", "x", "--seed", "7"])
    capsys.readouterr()
    path = _structure_file(tmp_path, 1, (1,))
    try:
        for argv in (["--json", "--tolerance", "1e-8", "classify", path],
                     ["classify", path, "--json", "--tolerance", "1e-7"]):
            assert main(argv) == 0
            assert json.loads(capsys.readouterr().out)["error"] is None
            assert get_tolerance() == float(argv[argv.index("--tolerance") + 1])
    finally:
        set_tolerance(1e-9)


def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys, monkeypatch):
    # two in-process calls share one parser; the first call's flags do not
    # reach the second call's namespace
    import aqslie.cli as cli

    path = _structure_file(tmp_path, 1, (1,))
    out = tmp_path / "h5.json"
    seen = []
    real_run = cli._run_single
    monkeypatch.setattr(cli, "_run_single", lambda args: seen.append(vars(args).copy())
                        or real_run(args))
    cli._build_parser.cache_clear()
    assert main(["cohomology", path, "--degrees", "0,1", "--json"]) == 0
    assert main(["construct", "heisenberg", "--dim-family", "4n1", "--weights", "1",
                 "-o", str(out)]) == 0
    assert main(["cohomology", path]) == 0
    capsys.readouterr()
    assert cli._build_parser.cache_info().misses == 1
    first, second, third = seen
    assert first["json"] is True and first["degrees"] == "0,1"
    assert second["json"] is False and "degrees" not in second and second["output"] == str(out)
    assert third["json"] is False and third["degrees"] is None and "output" not in third


BAD_TOLERANCES = ("0", "-1", "nan", "inf")


@pytest.mark.parametrize("bad", BAD_TOLERANCES)
def test_cli_tolerance_flag_must_be_finite_and_positive(tmp_path, capsys, bad):
    from aqslie.scalars import DEFAULT_TOLERANCE, get_tolerance, set_tolerance

    path = _structure_file(tmp_path, 1, (1,))
    for argv in (["--tolerance", bad, "check", path], ["check", path, f"--tolerance={bad}"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "argument --tolerance" in capsys.readouterr().err
    assert get_tolerance() == DEFAULT_TOLERANCE
    with pytest.raises(ValueError):
        set_tolerance(float(bad))
    assert get_tolerance() == DEFAULT_TOLERANCE


@pytest.mark.parametrize("bad", BAD_TOLERANCES)
def test_cli_bad_tolerance_variable_is_ignored(tmp_path, capsys, monkeypatch, bad):
    from aqslie.scalars import DEFAULT_TOLERANCE, get_tolerance

    monkeypatch.setenv("AQSLIE_TOLERANCE", bad)
    path = _structure_file(tmp_path, 1, (1,))
    assert main(["check", path, "--json"]) == 0
    captured = capsys.readouterr()
    assert "bad AQSLIE_TOLERANCE, ignoring" in captured.err
    assert json.loads(captured.out)["error"] is None
    assert get_tolerance() == DEFAULT_TOLERANCE


def test_cli_classify_dim21_heisenberg(tmp_path, capsys):
    # psi^2 has each eigenvalue -1, -4, ..., -25 four times: each is read once,
    # off a minimal polynomial
    out_file = tmp_path / "h21.json"
    args = ["construct", "heisenberg", "--dim-family", "4n1", "--weights", "1,2,3,4,5"]
    assert main(args + ["-o", str(out_file)]) == 0
    capsys.readouterr()
    code = main(["classify", str(out_file), "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["error"] is None
    assert out["payload"]["normal_form"]["weights"] == ["5", "4", "3", "2", "1"]


def test_cli_classify_reads_roots_on_the_operators_scale(tmp_path, capsys):
    # h13 conjugated by a dense integer Q (det 941547): psi^2's primitive
    # integer multiple has eigenvalues of 20 digits, whose product no desk can
    # factor; the sign-variation search factors nothing (on psi^2's own scale
    # they are -9, -4, -1 and 0)
    import random

    from aqslie.acm import conjugate_structure
    from aqslie.linalg import det

    rng = random.Random(0)
    while det(Q := [[F(rng.randint(-2, 2)) for _ in range(13)] for _ in range(13)]) == 0:
        pass
    assert det(Q) == 941547
    S = conjugate_structure(weighted_heisenberg_4n1(3, [3, 2, 1])[1][0], Q)
    path = tmp_path / "h13q.json"
    path.write_text(aqio.dumps(aqio.structure_to_json(S)), "utf-8")
    code = main(["classify", str(path), "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["error"] is None
    assert out["payload"]["normal_form"]["weights"] == ["3", "2", "1"]


@pytest.mark.parametrize("weights", ["3100000,1", "31000000000,7,1/3"])
def test_cli_classify_large_weights(tmp_path, capsys, weights):
    # psi^2's minimal polynomials end in coefficients past trial division
    # (9.61 10^12 for the first weights); the sign-variation search factors nothing
    path = str(tmp_path / "h.json")
    assert main(["construct", "heisenberg", "--dim-family", "4n1", "--weights", weights,
                 "-o", path]) == 0
    capsys.readouterr()
    code = main(["classify", path, "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["error"] is None
    assert out["payload"]["normal_form"]["weights"] == weights.split(",")


def test_cli_defect_outside_taxonomy_is_an_internal_report(tmp_path, capsys, monkeypatch):
    import aqslie.cli as cli

    def broken(S):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(cli, "classify_structure", broken)
    path = _structure_file(tmp_path, 1, (1,))
    code = main(["classify", path, "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 4 and out["payload"] is None
    assert out["error"]["code"] == "InternalContradiction"
    assert out["error"]["family"] == "internal"
    assert out["error"]["message"].startswith(
        "ZeroDivisionError: division by zero [in broken, test_io_cli.py:"
    )


def test_cli_curvature_rejects_an_asymmetric_metric(tmp_path, capsys):
    # classify stops at validation (g_symmetric); curvature runs no
    # validation, so the Levi-Civita solve must refuse the metric itself
    _, (S1, _, _) = weighted_heisenberg_4n1(1, [1])
    doc = aqio.structure_to_json(S1)
    doc["metric"][1][2] = "1/3"
    path = _write(tmp_path, "asym.json", doc)
    assert main(["curvature", path, "--json"]) == 3
    error = json.loads(capsys.readouterr().out)["error"]
    assert (error["code"], error["message"]) == ("PreconditionError", "metric is not symmetric")
    assert main(["classify", path, "--json"]) == 3
    assert json.loads(capsys.readouterr().out)["error"]["code"] == "InvalidStructure"
