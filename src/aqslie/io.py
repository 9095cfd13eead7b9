"""Shared text file format (JSON) for algebras, structures, forms, frames.

Scalars are strings, never native JSON numbers, so exact mode survives
serialization; float mode is declared in the file header, not guessed.
Indices are 1-based in files and 0-based in memory.  Bracket records are
accepted for i < j only and duplicate (i, j) pairs are rejected.

Serialization is canonical (sorted keys, two-space indent, trailing
newline), so serialize -> parse -> serialize is byte-identical.
"""

from __future__ import annotations

import hashlib
import json

from .acm import AcmStructure
from .errors import InputError
from .exterior import KForm
from .lie_core import LieAlgebra
from .linalg import Mat, Vec
from .scalars import parse_scalar, s_str


def dumps(document: dict) -> str:
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def loads(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError("top-level JSON value must be an object")
    return doc


def digest(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _mode_of(doc: dict) -> str:
    mode = doc.get("mode", "exact")
    if mode not in ("exact", "float"):
        raise InputError(f"unknown mode {mode!r}")
    return mode


def _matrix_to_json(M: Mat) -> list:
    return [[s_str(x) for x in row] for row in M]


def _matrix_from_json(rows, n: int, mode: str, what: str) -> Mat:
    if not isinstance(rows, list) or len(rows) != n:
        raise InputError(f"{what}: expected {n} rows")
    out = []
    for row in rows:
        if not isinstance(row, list) or len(row) != n:
            raise InputError(f"{what}: expected {n} columns per row")
        out.append([parse_scalar(str(x), mode) for x in row])
    return out


def _vector_from_json(row, n: int, mode: str, what: str) -> Vec:
    if not isinstance(row, list) or len(row) != n:
        raise InputError(f"{what}: expected a vector of length {n}")
    return [parse_scalar(str(x), mode) for x in row]


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
    dim = doc.get("dim")
    if not isinstance(dim, int) or dim < 1:
        raise InputError("dim must be a positive integer")
    names = doc.get("basis_names") or [f"e{i+1}" for i in range(dim)]
    if not (isinstance(names, list) and len(names) == dim
            and all(isinstance(x, str) for x in names)):
        raise InputError("basis_names must be a list of dim strings")
    table: dict = {}
    seen = set()
    for rec in doc.get("brackets", []):
        try:
            i, j = int(rec["i"]), int(rec["j"])
            targets = {int(k): val for k, val in rec.get("coeffs", {}).items()}
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad bracket record {rec!r}") from exc
        if not (1 <= i < j <= dim):
            raise InputError(f"bracket record must have 1 <= i < j <= dim, got ({i},{j})")
        if (i, j) in seen:
            raise InputError(f"duplicate bracket record for ({i},{j})")
        seen.add((i, j))
        coeffs = {}
        for k, val in targets.items():
            if not 1 <= k <= dim:
                raise InputError(f"bracket target {k} out of range")
            coeffs[k - 1] = parse_scalar(str(val), mode)
        table[(i - 1, j - 1)] = coeffs
    return LieAlgebra.from_brackets(dim, table, list(names), mode, check=True)


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
    mode = _mode_of(doc)
    n = L.dim
    for fieldname in ("phi", "xi", "eta", "metric"):
        if fieldname not in doc:
            raise InputError(f"structure file missing field {fieldname!r}")
    phi = _matrix_from_json(doc["phi"], n, mode, "phi")
    xi = _vector_from_json(doc["xi"], n, mode, "xi")
    eta = _vector_from_json(doc["eta"], n, mode, "eta")
    g = _matrix_from_json(doc["metric"], n, mode, "metric")
    S = AcmStructure.make(L, phi, xi, eta, g)
    companions = [
        AcmStructure.make(L, _matrix_from_json(M, n, mode, "companion"), xi, eta, g)
        for M in doc.get("companions", [])
    ]
    return S, companions


# ---------------------------------------------------------------------------
# Kahler algebras, forms, frames, matrices
# ---------------------------------------------------------------------------

def kahler_to_json(H) -> dict:
    doc = algebra_to_json(H.L)
    doc["kind"] = "kahler_lie_algebra"
    doc["J"] = _matrix_to_json(H.J_mat())
    doc["metric"] = _matrix_to_json(H.k_mat())
    return doc


def kahler_from_json(doc: dict):
    from .constructors import kahler

    L = algebra_from_json(doc)
    mode = _mode_of(doc)
    for fieldname in ("J", "metric"):
        if fieldname not in doc:
            raise InputError(f"kahler file missing field {fieldname!r}")
    J = _matrix_from_json(doc["J"], L.dim, mode, "J")
    k = _matrix_from_json(doc["metric"], L.dim, mode, "metric")
    return kahler(L, J, k, check=True)


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
    dim, degree = doc.get("dim"), doc.get("degree")
    if not isinstance(dim, int) or not isinstance(degree, int):
        raise InputError("form file needs integer dim and degree")
    terms = {}
    for rec in doc.get("terms", []):
        try:
            idx, coeff = tuple(int(x) - 1 for x in rec["indices"]), rec["coeff"]
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad term record {rec!r}") from exc
        if len(idx) != degree:
            raise InputError(f"term indices {rec['indices']} have wrong arity")
        if any(not 0 <= i < dim for i in idx):
            raise InputError(f"term indices {rec['indices']} out of range")
        terms[idx] = parse_scalar(str(coeff), mode)
    return KForm.make(degree, dim, terms)


def matrix_to_json(M: Mat, mode: str = "exact") -> dict:
    return {"kind": "matrix", "mode": mode, "dim": len(M), "rows": _matrix_to_json(M)}


def matrix_from_json(doc: dict) -> Mat:
    mode = _mode_of(doc)
    n = doc.get("dim")
    if not isinstance(n, int) or n < 1:
        raise InputError("matrix file needs a positive dim")
    return _matrix_from_json(doc.get("rows"), n, mode, "matrix")


def frame_to_json(frame, mode: str = "exact") -> dict:
    """Adapted frame: change-of-basis columns plus the weight list."""
    return {
        "kind": "adapted_frame",
        "mode": mode,
        "dim": len(frame.unscaled),
        "columns": [[s_str(x) for x in col] for col in frame.columns()],
        "weights": [s_str(w) for w in frame.weights],
    }


def frame_from_json(doc: dict) -> tuple[Mat, list]:
    """(change-of-basis matrix, weights); columns are the frame vectors."""
    mode = _mode_of(doc)
    n = doc.get("dim")
    if not isinstance(n, int) or n < 1:
        raise InputError("frame file needs a positive dim")
    cols = doc.get("columns")
    if not isinstance(cols, list) or len(cols) != n:
        raise InputError(f"frame file: expected {n} columns")
    parsed = [_vector_from_json(c, n, mode, "frame column") for c in cols]
    T = [[parsed[j][i] for j in range(n)] for i in range(n)]
    weights = [parse_scalar(str(w), mode) for w in doc.get("weights", [])]
    return T, weights


def document_kind(doc: dict) -> str:
    kind = doc.get("kind")
    if not isinstance(kind, str):
        raise InputError("file has no 'kind' field")
    return kind
