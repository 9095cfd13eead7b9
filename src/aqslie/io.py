"""Shared text file format (JSON) for algebras, structures, forms, matrices.

Scalars are strings, never native JSON numbers, so exact mode survives
serialization; float mode is declared in the file header, not guessed.
Indices are 1-based in files and 0-based in memory.  Bracket records are
accepted for i < j only and duplicate (i, j) pairs are rejected.

Every field is read by one typed accessor, `_field`: indices, dims and
degrees are JSON integers (never booleans, fractions or strings), lists
and objects are required where the format has them, and a violation is
an InputError naming its JSON path (`brackets[3].i`); a scalar string is
read by `_scalar`, whose ScalarParseError names it the same way.  A dim
must be the length of a list in the document (basis_names or rows), so
nothing of size dim is built first.  `read(doc, *kinds)` dispatches on
`kind`.

Serialization is canonical (sorted keys, two-space indent, trailing
newline), so serialize -> parse -> serialize is byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import sys

from .acm import AcmStructure
from .errors import InputError, ScalarParseError
from .exterior import KForm
from .lie_core import LieAlgebra
from .linalg import Mat, Vec
from .scalars import parse_scalar, s_str

_KIND_NAMES = {list: "a list", dict: "an object", str: "a string"}


def dumps(document: dict) -> str:
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def loads(text: str) -> dict:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an int past the digit limit, deep nesting
        raise InputError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError("top-level JSON value must be an object")
    return doc


def digest(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _at(path: str, key) -> str:
    if isinstance(key, str):
        return f"{path}.{key}" if path else key
    return f"{path}[{key}]"


def _field(doc, key, kind, path: str = "", default=None):
    """doc[key] checked against kind, or an InputError naming its JSON path.

    doc is a JSON object, or a list and key a position in it.  kind is
    list, dict, str or object (any value); a tuple of the allowed values;
    or a range: a JSON integer in it, never a bool, a non-integral number
    or a string.  A missing key gives default when one is passed.
    """
    if isinstance(doc, dict) and key not in doc:
        if default is None:
            raise InputError(f"{_at(path, key)}: missing")
        return default
    value = doc[key]
    if isinstance(kind, range):
        if isinstance(value, int) and not isinstance(value, bool) and value in kind:
            return value
        wanted = (f"an integer >= {kind.start}" if kind.stop == sys.maxsize
                  else f"an integer in [{kind.start}, {kind.stop - 1}]")
    elif isinstance(kind, tuple):
        if value in kind:
            return value
        wanted = " or ".join(map(json.dumps, kind))
    elif isinstance(value, kind):
        return value
    else:
        wanted = _KIND_NAMES[kind]
    shown = json.dumps(value, default=str)[:40]
    raise InputError(f"{_at(path, key)}: expected {wanted}, got {shown}")


def _dim(doc: dict, carrier: str) -> int:
    """doc["dim"], which must be the length of the nonempty list
    doc[carrier]; a dim is never trusted beyond what the document carries."""
    n = len(_field(doc, carrier, list))
    if not n:
        raise InputError(f"{carrier}: expected a nonempty list")
    return _field(doc, "dim", range(n, n + 1))


def _mode_of(doc: dict) -> str:
    return _field(doc, "mode", ("exact", "float"), "", "exact")


def _matrix_to_json(M: Mat) -> list:
    return [[s_str(x) for x in row] for row in M]


def _sized(doc, key, n: int, path: str = "") -> list:
    """The list doc[key], which must have n entries."""
    value = _field(doc, key, list, path)
    if len(value) != n:
        raise InputError(f"{_at(path, key)}: expected {n} entries, got {len(value)}")
    return value


def _scalar(doc, key, mode: str, path: str = ""):
    """doc[key] parsed as a scalar string; a bad one is a ScalarParseError
    naming its JSON path (`phi[2][3]: bad exact scalar 'x'`)."""
    value = _field(doc, key, object, path)
    try:
        return parse_scalar(str(value), mode)
    except ScalarParseError as exc:
        raise ScalarParseError(f"{_at(path, key)}: {exc}") from exc


def _vector(doc, key, n: int, mode: str, path: str = "") -> Vec:
    values, at = _sized(doc, key, n, path), _at(path, key)
    return [_scalar(values, c, mode, at) for c in range(n)]


def _matrix(doc, key, n: int, mode: str, path: str = "") -> Mat:
    """The n x n matrix doc[key], a list of n rows of n scalar strings."""
    rows, at = _sized(doc, key, n, path), _at(path, key)
    return [_vector(rows, r, n, mode, at) for r in range(n)]


# ---------------------------------------------------------------------------
# Lie algebras
# ---------------------------------------------------------------------------

def algebra_to_json(L: LieAlgebra) -> dict:
    records = []
    for (i, j), entries in L.brackets:
        records.append(
            {
                "i": i + 1,
                "j": j + 1,
                "coeffs": {str(k + 1): s_str(v) for k, v in entries},
            }
        )
    return {
        "kind": "lie_algebra",
        "mode": L.mode,
        "dim": L.dim,
        "basis_names": list(L.basis_names),
        "brackets": records,
    }


def algebra_from_json(doc: dict) -> LieAlgebra:
    mode = _mode_of(doc)
    dim = _dim(doc, "basis_names")
    names = [_field(doc["basis_names"], t, str, "basis_names") for t in range(dim)]
    index = {str(k + 1): k for k in range(dim)}  # so "03" or " 3" names no target
    table: dict = {}
    records = _field(doc, "brackets", list, "", [])
    for r in range(len(records)):
        at = _at("brackets", r)
        rec = _field(records, r, dict, "brackets")
        i = _field(rec, "i", range(1, dim), at)
        j = _field(rec, "j", range(i + 1, dim + 1), at)
        if (i - 1, j - 1) in table:
            raise InputError(f"{at}: duplicate bracket record for ({i},{j})")
        coeffs = {}
        targets = _field(rec, "coeffs", dict, at, {})
        for k in targets:
            if k not in index:
                raise InputError(f"{at}.coeffs: target {k!r} is not an index in [1, {dim}]")
            coeffs[index[k]] = _scalar(targets, k, mode, f"{at}.coeffs")
        table[(i - 1, j - 1)] = coeffs
    return LieAlgebra.from_brackets(dim, table, names, mode)


# ---------------------------------------------------------------------------
# structures
# ---------------------------------------------------------------------------

def structure_to_json(S: AcmStructure, companions: list[Mat] | None = None) -> dict:
    doc = algebra_to_json(S.L)
    doc["kind"] = "acm_structure"
    doc["phi"] = _matrix_to_json(S.phi_mat())
    doc["xi"] = [s_str(x) for x in S.xi]
    doc["eta"] = [s_str(x) for x in S.eta]
    doc["metric"] = _matrix_to_json(S.g_mat())
    if companions:
        doc["companions"] = [_matrix_to_json(M) for M in companions]
    return doc


def structure_from_json(doc: dict) -> tuple[AcmStructure, list[AcmStructure]]:
    """The structure plus any companion structures (same xi, eta, g)."""
    L = algebra_from_json(doc)
    mode, n = _mode_of(doc), L.dim
    phi = _matrix(doc, "phi", n, mode)
    xi, eta = _vector(doc, "xi", n, mode), _vector(doc, "eta", n, mode)
    g = _matrix(doc, "metric", n, mode)
    companions = _field(doc, "companions", list, "", [])
    return AcmStructure.make(L, phi, xi, eta, g), [
        AcmStructure.make(L, _matrix(companions, c, n, mode, "companions"), xi, eta, g)
        for c in range(len(companions))
    ]


# ---------------------------------------------------------------------------
# Kahler algebras, forms, matrices
# ---------------------------------------------------------------------------

def kahler_from_json(doc: dict):
    from .constructors import kahler

    L = algebra_from_json(doc)
    mode = _mode_of(doc)
    J, k = _matrix(doc, "J", L.dim, mode), _matrix(doc, "metric", L.dim, mode)
    return kahler(L, J, k)


def form_to_json(w: KForm, mode: str = "exact") -> dict:
    return {
        "kind": "k_form",
        "mode": mode,
        "dim": w.dim,
        "degree": w.degree,
        "terms": [
            {"indices": [i + 1 for i in idx], "coeff": s_str(c)}
            for idx, c in w.coeffs
        ],
    }


def form_from_json(doc: dict) -> KForm:
    mode = _mode_of(doc)
    dim = _field(doc, "dim", range(1, sys.maxsize))  # no list of a form carries it
    degree = _field(doc, "degree", range(dim + 1))
    terms = {}
    records = _field(doc, "terms", list, "", [])
    for t in range(len(records)):
        at = _at("terms", t)
        rec = _field(records, t, dict, "terms")
        indices = _sized(rec, "indices", degree, at)
        idx = tuple(_field(indices, s, range(1, dim + 1), f"{at}.indices") - 1
                    for s in range(degree))
        terms[idx] = _scalar(rec, "coeff", mode, at)
    return KForm.make(degree, dim, terms)


def matrix_from_json(doc: dict) -> Mat:
    return _matrix(doc, "rows", _dim(doc, "rows"), _mode_of(doc))


_READERS = {
    "lie_algebra": algebra_from_json,
    "acm_structure": structure_from_json,
    "kahler_lie_algebra": kahler_from_json,
    "k_form": form_from_json,
    "matrix": matrix_from_json,
}


def read(doc: dict, *kinds: str) -> tuple:
    """(kind, object): doc read by the reader of its kind, one of kinds."""
    kind = _field(doc, "kind", kinds)
    return kind, _READERS[kind](doc)
