"""Mutation fuzzing of the input boundary.

Small documents of every kind are mutated by one edit: a key or entry
dropped, a value replaced by each JSON type, an index moved by a half or
out of range, a bracket record duplicated.  Algebra and structure mutants
run through `aqslie check`, Kahler and cocycle mutants through `aqslie
extend`, and matrix mutants go to their reader.  Every mutant
ends in exit 0, 2 or 3 with no exception escaping, and an accepted mutant
reads back with the integers and shapes it was given, so no 1.7 is ever
read as 1.
"""

import contextlib
import copy
import io
import json
import tempfile
from fractions import Fraction as F
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
