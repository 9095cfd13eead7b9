"""Mutation fuzzing of the input boundary.

Small documents of every kind are mutated by one edit: a key or entry
dropped, a value replaced by each JSON type, an index moved by a half or
out of range, a bracket record duplicated.  Algebra and structure mutants
run through `aqslie check`, Kahler and cocycle mutants through `aqslie
extend`, and matrix mutants go to their reader.  Every mutant
ends in exit 0, 2 or 3 with no exception escaping, and an accepted mutant
reads back with the integers and shapes it was given, so no 1.7 is ever
read as 1.  A byte-level corpus (truncations, foreign encodings, deep
nesting, integers past the interpreter's int-string digit limit) and a
closed stdout end in exit 2 with one line and no traceback on stderr.
"""

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction as F
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aqslie
import aqslie.io as aqio
from aqslie.cli import main
from aqslie.constructors import standard_kahler, weighted_heisenberg_4n1
from aqslie.errors import AqslieError
from aqslie.exterior import KForm
from floatcopy import float_doc
from oracles import kahler_to_json, matrix_to_json

_, (_S1, _S2, _S3) = weighted_heisenberg_4n1(1, [1])
_H5 = aqio.structure_to_json(_S1, companions=[_S2.phi_mat(), _S3.phi_mat()])
_KAHLER = kahler_to_json(standard_kahler(2))
_COCYCLE = aqio.form_to_json(KForm.make(2, 4, {(0, 1): F(2), (2, 3): F(-2)}))
DOCUMENTS = {
    "h5": _H5,
    "h5-float": float_doc(_H5),
    "su3": aqio.loads(resources.files("aqslie").joinpath("data/su3.json").read_text("utf-8")),
    "kahler": _KAHLER,
    "cocycle": _COCYCLE,
    "matrix": matrix_to_json([[F(0), F(-1)], [F(1), F(0)]]),
}
JSON_VALUES = (True, 1.5, "x", [[1]], None, 10**30)


def _positions(value, path=()):
    """Every position below the root; of a list, its first and last entries."""
    if isinstance(value, dict):
        children = list(value.items())
    elif isinstance(value, list) and value:
        children = [(t, value[t]) for t in sorted({0, len(value) - 1})]
    else:
        children = []
    for key, child in children:
        yield path + (key,)
        yield from _positions(child, path + (key,))


POSITIONS = {name: list(_positions(doc)) for name, doc in DOCUMENTS.items()}


def _edits(path: tuple, value) -> list:
    edits = [("drop", None)] + [("set", v) for v in JSON_VALUES]
    if isinstance(value, int) and not isinstance(value, bool):
        edits += [("set", v) for v in (value + 0.5, value - 0.5, 0, -1, value + 100)]
    key = path[-1]
    if isinstance(key, str) and key.isdigit():  # a bracket target
        edits += [("rename", k) for k in (f"{key}.5", "0", str(int(key) + 100))]
    if path[:-1] == ("brackets",):
        edits.append(("duplicate", None))
    return edits


@st.composite
def mutants(draw):
    name = draw(st.sampled_from(sorted(DOCUMENTS)))
    doc = copy.deepcopy(DOCUMENTS[name])
    path = draw(st.sampled_from(POSITIONS[name]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    op, arg = draw(st.sampled_from(_edits(path, parent[key])))
    if op == "drop":
        del parent[key]
    elif op == "set":
        parent[key] = arg
    elif op == "rename":
        parent[arg] = parent.pop(key)
    else:
        parent.append(copy.deepcopy(parent[key]))
    return name, doc


def _run(argv: list) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv + ["--json"])


def _outcome(name: str, doc: dict, workdir: Path) -> int:
    """Exit code of the mutant; an accepted mutant must read back as given."""
    def write(key: str, document: dict) -> str:
        path = workdir / f"{key}.json"
        path.write_text(json.dumps(document), "utf-8")
        return str(path)

    if name == "matrix":
        try:
            aqio.read(doc, DOCUMENTS[name]["kind"])
        except AqslieError as exc:
            return exc.exit_code
    elif name in ("kahler", "cocycle"):
        docs = {"kahler": _KAHLER, "cocycle": _COCYCLE, name: doc}
        code = _run(["extend", "--kahler", write("k", docs["kahler"]),
                     "--cocycle", write("w", docs["cocycle"])])
        if code:
            return code
    else:
        code = _run(["check", write("s", doc)])
        if code:
            return code
    assert _agrees(_without_zero_brackets(doc), _written(*aqio.read(doc, doc["kind"]), doc))
    return 0


def _written(kind: str, obj, doc: dict) -> dict:
    """The document the writers produce for what a reader returned."""
    mode = doc.get("mode", "exact")
    if kind == "acm_structure":
        return aqio.structure_to_json(obj[0], companions=[c.phi_mat() for c in obj[1]])
    writer = {"lie_algebra": aqio.algebra_to_json, "kahler_lie_algebra": kahler_to_json,
              "k_form": lambda w: aqio.form_to_json(w, mode),
              "matrix": lambda M: matrix_to_json(M, mode)}[kind]
    return writer(obj)


def _without_zero_brackets(doc: dict) -> dict:
    # a record without coefficients is a zero bracket, which the writer omits
    if isinstance(doc.get("brackets"), list):
        doc = dict(doc, brackets=[r for r in doc["brackets"] if r.get("coeffs")])
    return doc


def _agrees(given, written, top: bool = True) -> bool:
    """Every integer, list length and nested object key of given is written
    back; a scalar cell may come back rewritten (10**30 as "1000...")."""
    if isinstance(written, str):
        return True
    if isinstance(given, dict) and isinstance(written, dict):
        keys = given.keys() & written.keys() if top else given.keys() | written.keys()
        return all(k in given and k in written and _agrees(given[k], written[k], False)
                   for k in keys)
    if isinstance(given, list) and isinstance(written, list):
        return len(given) == len(written) and all(
            _agrees(g, w, False) for g, w in zip(given, written))
    return type(given) is type(written) and given == written


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(mutants())
def test_mutated_documents_end_in_a_typed_outcome(mutant):
    name, doc = mutant
    with tempfile.TemporaryDirectory() as workdir:
        assert _outcome(name, doc, Path(workdir)) in (0, 2, 3)


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_a_huge_dim_is_refused_before_anything_of_its_size(name, tmp_path):
    doc = dict(DOCUMENTS[name], dim=10**30)
    assert _outcome(name, doc, tmp_path) == 2
    with pytest.raises(AqslieError, match="dim"):
        aqio.read(doc, doc["kind"])


_H5_TEXT = aqio.dumps(_H5)
_DIGITS = "7" * 5000  # past CPython's 4,300-digit limit on int-string conversion


def _byte_corpus():
    data = _H5_TEXT.encode("utf-8")
    for cut in range(0, len(data), 97):  # a truncation at every 97th byte
        yield f"truncated-{cut}", data[:cut]
    yield "latin-1", _H5_TEXT.replace('"tau1', '"tau\xe9', 1).encode("latin-1")
    yield "invalid-utf-8", data[:40] + b"\xff\xfe" + data[40:]
    yield "utf-16-bom", _H5_TEXT.encode("utf-16")
    yield "nested-1e5", ("{\"phi\": " + "[" * 10**5 + "]" * 10**5 + "}").encode()
    yield "digits-in-a-scalar", _H5_TEXT.replace('"0"', f'"{_DIGITS}"', 1).encode()
    yield "digits-in-a-radicand", _H5_TEXT.replace('"0"', f'"sqrt({_DIGITS})"', 1).encode()
    yield "digits-in-a-bracket", _H5_TEXT.replace('"1": "2"', f'"1": "{_DIGITS}"', 1).encode()
    yield "digits-as-a-number", _H5_TEXT.replace('"dim": 5', f'"dim": {_DIGITS}', 1).encode()


@pytest.mark.parametrize("name, data", [pytest.param(*case, id=case[0]) for case in _byte_corpus()])
def test_bytes_end_in_a_typed_outcome(name, data, tmp_path, monkeypatch):
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    for source in (str(path), "-"):  # a file, and the same bytes on stdin
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["classify", source])
        assert code == 2
        assert err.getvalue().count("\n") == 1 and "Traceback" not in err.getvalue()
        if name.startswith("digits-in"):  # named by its JSON path
            at = "brackets[0].coeffs.1" if name.endswith("bracket") else "companions[0][0][0]"
            assert f"ScalarParseError (parse): {at}: bad exact scalar" in err.getvalue()


def test_a_weight_past_the_digit_limit_is_a_scalar_parse_error():
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["construct", "heisenberg", "--dim-family", "4n1", "--weights", f"1,{_DIGITS}"])
    assert code == 2
    assert err.getvalue().startswith("aqslie construct: ScalarParseError (parse): --weights: ")


@pytest.mark.parametrize("argv", [["classify", "{doc}", "--json"], ["classify", "{doc}"],
                                  ["construct", "heisenberg", "--dim-family", "4n1", "--weights", "1"]])
def test_a_closed_stdout_exits_2_with_one_line(argv, tmp_path):
    # the reader closes the pipe before the command writes: its report cannot
    # be written, which is reported like an unwritable -o
    doc = tmp_path / "h5.json"
    doc.write_text(_H5_TEXT, "utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(aqslie.__file__).parent.parent))
    proc = subprocess.Popen([sys.executable, "-m", "aqslie.cli", *(a.format(doc=doc) for a in argv)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 2
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"aqslie {argv[0]}: InputError (parse): cannot write to stdout")
