"""The workloads.  Each is a sequence of rounds; a round has a fixed
composition of operations, and the seed decides their order and, where that
keeps the cost of a round the same, the concrete inputs.

Every operation gets an input built (or file written) outside its timed span,
so no per-object memo (``AcmStructure._memo``) survives from one operation to
the next, and its output is checked outside the timed span.

Import this module only after ``aqslie`` is importable (see run.py).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import comb
from pathlib import Path
from typing import Any, Callable

import aqslie.io as aqio
from aqslie import acm, classifier, cli, constructors, lie_core, linalg

from layers import max_bits

HERE = Path(__file__).resolve().parent


@dataclass
class Op:
    kind: str
    build: Callable[[], Any]  # fresh input, untimed
    call: Callable[[Any], Any]  # the timed operation
    check: Callable[[Any, Any], bool]  # output verification, untimed


class InputProperties:
    """Per operation kind: count, dims, mean bracket density, max coefficient bits."""

    def __init__(self):
        self.ops: Counter = Counter()
        self.kinds: dict = {}

    def note(self, kind: str, L, tensors=()) -> None:
        pairs = comb(L.dim, 2)
        entry = self.kinds.setdefault(
            kind, {"dims": set(), "density_sum": 0.0, "inputs": 0, "max_input_bits": 0}
        )
        entry["dims"].add(L.dim)
        entry["density_sum"] += len(L.brackets) / pairs if pairs else 0.0
        entry["inputs"] += 1
        coeffs = (v for _, entries in L.brackets for _, v in entries)
        entry["max_input_bits"] = max(
            entry["max_input_bits"], max_bits(chain(coeffs, *tensors))
        )

    def summary(self) -> dict:
        return {
            "operations": dict(sorted(self.ops.items())),
            "inputs": {
                kind: {
                    "dims": sorted(e["dims"]),
                    "bracket_density": e["density_sum"] / e["inputs"],
                    "max_input_bits": e["max_input_bits"],
                }
                for kind, e in sorted(self.kinds.items())
            },
        }


class Workload:
    """Rounds of operations; subclasses define ``round(rng, index)``, ``warmup``,
    ``nominal_round_s`` (wall seconds of one round, checks included, at the
    baseline) and ``tail_rounds``: the first rounds of a run that form the
    pool of latency_tail_s, chosen so that more than 10 of its operations lie
    in the round's costly share."""

    name = ""
    nominal_round_s = 1.0
    tail_rounds = 1

    def __init__(self):
        self.props = InputProperties()

    def setup(self) -> None:
        pass

    def close(self) -> None:
        pass


def _structure_tensors(S) -> tuple:
    return (chain.from_iterable(S.phi), chain.from_iterable(S.g), S.xi, S.eta)


def _reference() -> dict:
    return json.loads((HERE / "reference.json").read_text("utf-8"))


# ---------------------------------------------------------------------------
# classify-dense
# ---------------------------------------------------------------------------

class ClassifyDense(Workload):
    """Conjugated weighted Heisenberg structures through the classifiers.

    A round is two h^9_(1,2) and two h^13_(1,2,3) anti-quasi-Sasakian
    conjugations (``random_unimodular`` with its default steps, as in
    acceptance criterion 4) and one conjugated quasi-Sasakian h^9_(1,2,3,4).
    The cost of a classify varies about threefold between conjugations, so
    seeding the conjugations themselves made the run-to-run spread exceed the
    benchmark's bounds: the conjugations are the same for every seed (each
    drawn from a generator seeded by its round and slot) and the seed only
    shuffles their order within the round.

    A dim-13 classify costs two to five times a dim-9 one.  The tail pool of
    six rounds holds 30 operations, 12 of them dim 13, so latency_tail_s
    (rank 20) is the second-fastest dim-13 classify of the pool; the median
    (rank 15 of 30) falls among the 18 dim-9 operations.
    """

    name = "classify-dense"
    nominal_round_s = 8.0
    tail_rounds = 6
    ROUND = (
        ("aqs", 2, (1, 2)), ("aqs", 2, (1, 2)),
        ("aqs", 3, (1, 2, 3)), ("aqs", 3, (1, 2, 3)),
        ("qs", 4, (1, 2, 3, 4)),
    )

    def _base(self, family: str, n: int, w):
        if family == "aqs":
            return constructors.weighted_heisenberg_4n1(n, w)[1][0]
        return constructors.weighted_heisenberg_2n1(n, w)[1]

    def _op(self, family: str, n: int, w, conjugation_seed) -> Op:
        kind = f"{family}{(4 if family == 'aqs' else 2) * n + 1}"

        def build():
            S = self._base(family, n, w)
            if conjugation_seed is not None:
                Q = linalg.random_unimodular(S.L.dim, random.Random(conjugation_seed))
                S = acm.conjugate_structure(S, Q)
            self.props.ops[kind] += 1
            self.props.note(kind, S.L, _structure_tensors(S))
            return S

        if family == "aqs":
            call = lambda S: classifier.classify_nilpotent_aqs(S)  # noqa: E731
        else:
            call = lambda S: classifier.classify_nilpotent_qs(S)  # noqa: E731
        return Op(kind, build, call, lambda S, iso: self._verify(family, w, S, iso))

    def warmup(self) -> Op:
        return self._op(*self.ROUND[0], conjugation_seed=None)

    def round(self, rng: random.Random, index: int) -> list[Op]:
        ops = [
            self._op(family, n, w, f"{self.name}:{index}:{slot}")
            for slot, (family, n, w) in enumerate(self.ROUND)
        ]
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _verify(family: str, w, S, iso) -> bool:
        """Exact weight multiset, then the criterion-4 push-forward checks."""
        if list(iso.weights) != sorted((Fraction(x) for x in w), reverse=True):
            return False
        F = iso.F_mat()
        target_L, target = _normal_form(family, iso.n, tuple(iso.weights))
        if family == "aqs":
            target_phi = target.phi_mat()
        else:
            target_phi = linalg.zeros(S.L.dim, S.L.dim)
            for r, sign in enumerate(iso.phi_signs, start=1):
                if sign not in (1, -1):
                    return False
                target_phi[iso.n + r][r] = Fraction(sign)
                target_phi[r][iso.n + r] = Fraction(-sign)
        F_inv = linalg.inverse(F)
        Ft = linalg.transpose(F)
        if not (
            linalg.mat_eq(linalg.mat_mul(F, linalg.mat_mul(S.phi_mat(), F_inv)), target_phi)
            and linalg.vec_eq(linalg.mat_vec(F, S.xi_vec()), target.xi_vec())
            and linalg.vec_eq(linalg.mat_vec(Ft, target.eta_row()), S.eta_row())
            and linalg.mat_eq(linalg.mat_mul(Ft, linalg.mat_mul(target.g_mat(), F)), S.g_mat())
        ):
            return False
        dim = S.L.dim
        for a in range(dim):
            for b in range(a + 1, dim):
                lhs = linalg.mat_vec(
                    F, lie_core.bracket(S.L, S.L.basis_vector(a), S.L.basis_vector(b))
                )
                rhs = lie_core.bracket(target_L, [row[a] for row in F], [row[b] for row in F])
                if not linalg.vec_eq(lhs, rhs):
                    return False
        return True


@functools.lru_cache(maxsize=None)
def _normal_form(family: str, n: int, weights: tuple):
    """The classifier's target structure; the same few for every check, so
    built once (it is only read)."""
    if family == "aqs":
        L, structures = constructors.weighted_heisenberg_4n1(n, list(weights))
        return L, structures[1]
    return constructors.weighted_heisenberg_2n1(n, list(weights))


# ---------------------------------------------------------------------------
# cli-mixed
# ---------------------------------------------------------------------------

SQRT_WEIGHTS = "sqrt(2),1,3/2*sqrt(5)"
H21_WEIGHTS = "1,2,3,4,5"

# (kind, argv template); every command also gets --json
CLI_OPS = (
    ("construct-sqrt13", f"construct heisenberg --dim-family 4n1 --weights {SQRT_WEIGHTS} -o {{out}}"),
    ("check-sqrt13", "check {s13}"),
    ("classify-sqrt13", "classify {s13}"),
    ("curvature-sqrt13", "curvature {s13}"),
    ("cohomology-sqrt13", "cohomology {s13} --degrees 0,1,2"),
    ("construct-sqrt7", f"construct heisenberg --dim-family 2n1 --weights {SQRT_WEIGHTS} -o {{out}}"),
    ("check-sqrt7", "check {s7}"),
    ("classify-sqrt7", "classify {s7}"),
    ("curvature-sqrt7", "curvature {s7}"),
    ("cohomology-sqrt7", "cohomology {s7} --degrees 0,1,2"),
    ("classify-float9", "classify {f9}"),
    ("curvature-float9", "curvature {f9}"),
    ("check-float13", "check {f13}"),
    ("classify-float13", "classify {f13}"),
    ("curvature-float13", "curvature {f13}"),
    ("invariant-forms-su3-t12", "invariant-forms --algebra su3 --torus 1,2"),
    ("invariant-forms-su3-t1", "invariant-forms --algebra su3 --torus 1"),
    ("invariant-forms-su2-t3", "invariant-forms --algebra su2 --torus 3"),
    ("construct-h21", f"construct heisenberg --dim-family 4n1 --weights {H21_WEIGHTS} -o {{out}}"),
)


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def payload_digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def cli_outcome(kind: str, code: int, text: str) -> dict:
    """What a run of one CLI operation is compared on."""
    report = json.loads(text)
    payload = report["payload"]
    if payload is not None and kind.startswith("construct"):
        digest = payload["digest"]  # of the written document; the path varies
    else:
        digest = None if payload is None else payload_digest(payload)
    error = report["error"]["code"] if report["error"] else None
    return {"exit": code, "error": error, "digest": digest}


def _float_copy(doc: dict) -> dict:
    """The exact structure document re-declared in float mode."""

    def floatify(v):
        if isinstance(v, str):
            return repr(float(Fraction(v)))
        if isinstance(v, list):
            return [floatify(x) for x in v]
        if isinstance(v, dict):
            return {k: floatify(x) for k, x in v.items()}
        return v

    out = dict(doc, mode="float")
    for key in ("phi", "xi", "eta", "metric", "brackets"):
        out[key] = floatify(doc[key])
    return out


class CliMixed(Workload):
    """``aqslie.cli.main`` in-process on files written during set-up: the
    square-root tower, float mode, invariant forms and a dim-21 construct.
    The seed shuffles the order of the operations in each round."""

    name = "cli-mixed"
    nominal_round_s = 10.0
    tail_rounds = 4  # 76 operations; the tail (rank 66) is about p87

    def __init__(self, workdir: Path):
        super().__init__()
        self.workdir = workdir

    def setup(self) -> None:
        self.expected = _reference()["cli"]
        self.write_inputs()

    def write_inputs(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.files = {key: str(self.workdir / f"{key}.json") for key in ("s13", "s7", "f9", "f13")}
        run_cli(["construct", "heisenberg", "--dim-family", "4n1", "--weights", SQRT_WEIGHTS,
                 "-o", self.files["s13"]])
        run_cli(["construct", "heisenberg", "--dim-family", "2n1", "--weights", SQRT_WEIGHTS,
                 "-o", self.files["s7"]])
        for key, n, w in (("f9", 2, [1, 2]), ("f13", 3, [1, 2, 3])):
            S = constructors.weighted_heisenberg_4n1(n, w)[1][0]
            doc = _float_copy(aqio.structure_to_json(S))
            Path(self.files[key]).write_text(aqio.dumps(doc), "utf-8")
        self.inputs = {}
        for key, path in self.files.items():
            S = aqio.structure_from_json(aqio.loads(Path(path).read_text("utf-8")))[0]
            self.inputs[key] = S
        self.outputs = 0

    def _op(self, kind: str, template: str) -> Op:
        def build():
            self.outputs += 1
            out = str(self.workdir / f"out{self.outputs}.json")
            argv = [a.format(out=out, **self.files) for a in template.split()] + ["--json"]
            self.props.ops[kind] += 1
            for key, path in self.files.items():
                if path in argv:
                    self.props.note(key, self.inputs[key].L, _structure_tensors(self.inputs[key]))
            return argv

        def check(argv, result) -> bool:
            outcome = cli_outcome(kind, *result)
            if "-o" in argv:
                Path(argv[argv.index("-o") + 1]).unlink(missing_ok=True)
            return outcome == self.expected[kind]

        return Op(kind, build, run_cli, check)

    def warmup(self) -> Op:
        return self._op("check-sqrt7", "check {s7}")

    def round(self, rng: random.Random, index: int) -> list[Op]:
        ops = list(CLI_OPS)
        rng.shuffle(ops)
        return [self._op(kind, template) for kind, template in ops]

    def known_defect(self) -> dict:
        """The dim-21 classify (valid input) is kept visible but outside the
        measured operations: today it ends in an uncaught exception."""
        path = str(self.workdir / "h21.json")
        expected = H21_WEIGHTS.split(",")[::-1]
        try:
            run_cli(["construct", "heisenberg", "--dim-family", "4n1", "--weights", H21_WEIGHTS,
                     "-o", path])
            code, text = run_cli(["classify", path, "--json"])
        except Exception as exc:  # the defect: no report envelope at all
            return {"operation": "classify-h21", "status": "open",
                    "outcome": f"{type(exc).__name__}: {exc}"[:200]}
        report = json.loads(text)
        fixed = code == 0 and report["payload"]["normal_form"]["weights"] == expected
        return {"operation": "classify-h21", "status": "fixed" if fixed else "open",
                "outcome": f"exit {code}"}

    def close(self) -> None:
        if self.workdir.is_dir():
            for path in self.workdir.glob("*.json"):
                path.unlink()
            self.workdir.rmdir()


def make(name: str, workdir: Path):
    if name == ClassifyDense.name:
        return ClassifyDense()
    if name == CliMixed.name:
        return CliMixed(workdir)
    raise KeyError(name)

