"""Canonical CLI payloads pinned by digest.

A fixed corpus of CLI reports (exact, square-root tower, float and error
cases) runs in-process; each report is compared on its exit code, its error
code and the sha256 of its canonical payload
``json.dumps(payload, sort_keys=True, separators=(",", ":"))``.  A change
that alters any payload byte, verdict or exit class fails here.

To print the table for the current code (for example after a deliberate
payload change, whose before/after values belong in the change log)::

    PYTHONPATH=src python tests/test_payload_digests.py
"""

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

import aqslie.io as aqio
from aqslie.acm import conjugate_structure
from aqslie.cli import main
from aqslie.constructors import su3, weighted_heisenberg_2n1, weighted_heisenberg_4n1
from aqslie.linalg import random_unimodular
from aqslie.scalars import DEFAULT_TOLERANCE, get_tolerance, set_tolerance
from floatcopy import float_algebra_doc, float_doc

SQRT_WEIGHTS = "sqrt(2),1,3/2*sqrt(5)"


def _conjugated(S, seed: int):
    return conjugate_structure(S, random_unimodular(S.L.dim, random.Random(seed)))


def _run(argv: list[str]) -> tuple[int, dict]:
    set_tolerance(DEFAULT_TOLERANCE)  # --tolerance sets it globally
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--json"])
    return code, json.loads(out.getvalue())


def _outcome(code: int, report: dict) -> list:
    payload = report["payload"]
    digest = None
    if payload is not None:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    error = report["error"]["code"] if report["error"] else None
    return [code, error, digest]


def corpus_outcomes(workdir: Path) -> dict:
    """Run the corpus; returns {case name: [exit code, error code, digest]}."""
    outcomes: dict = {}
    files: dict = {}

    def write(key: str, doc: dict) -> None:
        files[key] = str(workdir / f"{key}.json")
        Path(files[key]).write_text(aqio.dumps(doc), "utf-8")

    def construct(key: str, family: str, weights: str) -> None:
        argv = ["construct", "heisenberg", "--dim-family", family, "--weights", weights]
        code, report = _run(argv)
        outcomes[f"construct-{key}"] = _outcome(code, report)
        if code == 0:
            write(key, report["payload"]["document"])

    def run(name: str, argv: list[str]) -> None:
        outcomes[name] = _outcome(*_run(argv))

    _, (h9, h9b, h9c) = weighted_heisenberg_4n1(2, [1, 2])
    write("h9", aqio.structure_to_json(h9, companions=[h9b.phi_mat(), h9c.phi_mat()]))
    write("h9c1", aqio.structure_to_json(_conjugated(h9, 1)))
    h13 = weighted_heisenberg_4n1(3, [1, 2, 3])[1][0]
    write("h13c2", aqio.structure_to_json(_conjugated(h13, 2)))
    qs9 = weighted_heisenberg_2n1(4, [1, 2, 3, 4])[1]
    write("qs9c1", aqio.structure_to_json(_conjugated(qs9, 1)))
    write("f9", float_doc(aqio.structure_to_json(h9)))
    write("f9c1", float_doc(aqio.structure_to_json(_conjugated(h9, 1))))
    h5 = aqio.structure_to_json(weighted_heisenberg_4n1(1, [1])[1][0])
    h5["metric"][1][2] = "1/3"  # the metric is no longer symmetric
    write("h5asym", h5)
    construct("sqrt13", "4n1", SQRT_WEIGHTS)
    construct("sqrt7", "2n1", SQRT_WEIGHTS)
    construct("h9w10", "4n1", "1,0")

    for key in ("h9", "h9c1", "qs9c1", "sqrt13", "sqrt7", "h9w10", "h5asym"):
        for command in ("check", "classify", "curvature"):
            run(f"{command}-{key}", [command, files[key]])
    run("classify-h13c2", ["classify", files["h13c2"]])
    for key in ("sqrt13", "sqrt7"):
        run(f"cohomology-{key}", ["cohomology", files[key], "--degrees", "0,1,2"])
    for key in ("f9", "f9c1"):
        for tol in ("1e-9", "1e-7", "1e-6"):
            for command in ("check", "classify", "curvature"):
                run(f"{command}-{key}-tol{tol}", [command, files[key], "--tolerance", tol])
    # the operator identities fail on rounding alone: a precision limit, not NotAqs
    run("classify-f9c1-tol1e-8", ["classify", files["f9c1"], "--tolerance", "1e-8"])
    run("invariant-forms-su3-t12", ["invariant-forms", "--algebra", "su3", "--torus", "1,2"])
    write("fsu3", float_algebra_doc(aqio.algebra_to_json(su3())))
    run("invariant-forms-fsu3-t12",
        ["invariant-forms", "--algebra", files["fsu3"], "--torus", "1,2"])
    run("invariant-forms-su2-t3", ["invariant-forms", "--algebra", "su2", "--torus", "3"])
    return outcomes


EXPECTED = {
    "construct-sqrt13": [0, None, "c55ced8be90a076f0e2e52e200da42cace745a4346b276a8f0703caeba3582e8"],
    "construct-sqrt7": [0, None, "6dabf36ae1d05a12462cbcac3d6ec29c34a68506984692c1006c7e14597a3536"],
    "construct-h9w10": [0, None, "624061b8bec1f07d8d605b468ff0c6fea5d633f980bcb8b5c0f31b831de993f0"],
    "check-h9": [0, None, "9158dc5c389b3cd209374365b2eeab29460d2eccdaf4f3a2221ea976d34428d6"],
    "classify-h9": [0, None, "207d08c8e05e8ba99853408b8d5221ef8e488a2e4fc4cfcbb7fae8b78d7decf7"],
    "curvature-h9": [0, None, "a0b65dbdf639e0501849231544305695b07421eb9ad88612c0eea5b9eaf4c5dd"],
    "check-h9c1": [0, None, "fc133cda1f2cb35a4dbd8e722b50e6d53f281bf6ad9b8e7ff47a580d3891acd8"],
    "classify-h9c1": [0, None, "c653cd462a5f3ebdf9d8b3c672a45bdae40355f58769b7c31ad5c3b5a317b130"],
    "curvature-h9c1": [0, None, "ca5488be652fb4a7055e028a3d9a4dcad72b7a48474f173dd3c3ea831b2431c0"],
    "check-qs9c1": [0, None, "fc133cda1f2cb35a4dbd8e722b50e6d53f281bf6ad9b8e7ff47a580d3891acd8"],
    "classify-qs9c1": [0, None, "1dfe691cb16bbec88b116562a0f454a015ba12a4ce33d2a54075e4c81cef59be"],
    "curvature-qs9c1": [0, None, "5a039320a0ba2059b58c1af1bb85869ba237e8539d5ee287b163c053cda8f471"],
    "check-sqrt13": [0, None, "b28fe02558897c178c6f0fbd750a753897b13ca6307db1c93314146415a8ad75"],
    "classify-sqrt13": [0, None, "123eeee7907fd2165777e158346654a1a53ed615854011c467c862d8d979c8d5"],
    "curvature-sqrt13": [0, None, "ed6583b3acb794ee79b1df0a4c4251895dc67239725cb14814714542e21f0220"],
    "check-sqrt7": [0, None, "7a14a875f9e3558fff245220248cec0b192f192d05796da8e4b4c381ea2627c1"],
    "classify-sqrt7": [3, "IrrationalSpectrum", None],
    "curvature-sqrt7": [0, None, "7fea40f74df9212af640335e142e61efa5d83c1aadc19d0c2d5cfb74269280a4"],
    "check-h9w10": [0, None, "9158dc5c389b3cd209374365b2eeab29460d2eccdaf4f3a2221ea976d34428d6"],
    "classify-h9w10": [3, "NotMaximalRank", None],
    "curvature-h9w10": [0, None, "9e524dc20e1f3292efdc435cf42abea0d55a6e5cae321dce39fc1893fe35e3d3"],
    "check-h5asym": [2, "InputError", None],
    "classify-h5asym": [3, "InvalidStructure", None],
    "curvature-h5asym": [3, "PreconditionError", None],
    "classify-h13c2": [0, None, "724e0ef526043693caea1c67c779a2ac28b9f5eed3cfc36d5eb559259013f993"],
    "cohomology-sqrt13": [0, None, "eae6d836d6289cd19ae95f2f1729c12c5beaa0c6a3b3beaec403fd0c77460233"],
    "cohomology-sqrt7": [0, None, "e2e819cdde670d4e5c7c04b4bc2403917ea6237591de57c2a6be6ca494b0034e"],
    "check-f9-tol1e-9": [0, None, "fc133cda1f2cb35a4dbd8e722b50e6d53f281bf6ad9b8e7ff47a580d3891acd8"],
    "classify-f9-tol1e-9": [0, None, "8289543bd177b6b83423ba66e189d3ea1b441468c2989c45d8e40d89b5ea0cae"],
    "curvature-f9-tol1e-9": [0, None, "1d283b1e62fea5735b19036cc388adca365974bce450810b979a80e1b0f9080f"],
    "check-f9-tol1e-7": [0, None, "fc133cda1f2cb35a4dbd8e722b50e6d53f281bf6ad9b8e7ff47a580d3891acd8"],
    "classify-f9-tol1e-7": [0, None, "8289543bd177b6b83423ba66e189d3ea1b441468c2989c45d8e40d89b5ea0cae"],
    "curvature-f9-tol1e-7": [0, None, "1d283b1e62fea5735b19036cc388adca365974bce450810b979a80e1b0f9080f"],
    "check-f9-tol1e-6": [0, None, "fc133cda1f2cb35a4dbd8e722b50e6d53f281bf6ad9b8e7ff47a580d3891acd8"],
    "classify-f9-tol1e-6": [0, None, "8289543bd177b6b83423ba66e189d3ea1b441468c2989c45d8e40d89b5ea0cae"],
    "curvature-f9-tol1e-6": [0, None, "1d283b1e62fea5735b19036cc388adca365974bce450810b979a80e1b0f9080f"],
    "check-f9c1-tol1e-9": [0, None, "fc133cda1f2cb35a4dbd8e722b50e6d53f281bf6ad9b8e7ff47a580d3891acd8"],
    "classify-f9c1-tol1e-9": [3, "ToleranceExceeded", None],
    "curvature-f9c1-tol1e-9": [3, "ToleranceExceeded", None],
    "check-f9c1-tol1e-7": [0, None, "fc133cda1f2cb35a4dbd8e722b50e6d53f281bf6ad9b8e7ff47a580d3891acd8"],
    "classify-f9c1-tol1e-7": [3, "ToleranceExceeded", None],
    "curvature-f9c1-tol1e-7": [0, None, "d455b1e5385d0fa1cb28430b9c0c48ef3e83212b5c32097ed0b5e6b02c2106c6"],
    "check-f9c1-tol1e-6": [0, None, "fc133cda1f2cb35a4dbd8e722b50e6d53f281bf6ad9b8e7ff47a580d3891acd8"],
    "classify-f9c1-tol1e-6": [0, None, "e39c50e3f727bcd1d7e96b7b258730f9d3ebc3db44d6ced920e7c11f59c38c0a"],
    "curvature-f9c1-tol1e-6": [0, None, "d455b1e5385d0fa1cb28430b9c0c48ef3e83212b5c32097ed0b5e6b02c2106c6"],
    "classify-f9c1-tol1e-8": [3, "ToleranceExceeded", None],
    "invariant-forms-su3-t12": [0, None, "2de234e81e0a33cb2b41f2487a8e9882089858e0230d534aa29d7e5efbd2e52e"],
    "invariant-forms-su2-t3": [0, None, "dfc25162039a77e630a620e3770795deadce7b1a69661c8f731f5679e42b1536"],
    "invariant-forms-fsu3-t12": [0, None, "a744cd0660b713760c3ba621fe3e9858629deb79f8b3b554065fd000627df7f1"],
}


def test_payload_digests_match_the_table(tmp_path, monkeypatch):
    monkeypatch.delenv("AQSLIE_TOLERANCE", raising=False)
    old = get_tolerance()
    try:
        outcomes = corpus_outcomes(tmp_path)
    finally:
        set_tolerance(old)
    assert sorted(outcomes) == sorted(EXPECTED)
    mismatched = {k: v for k, v in outcomes.items() if v != EXPECTED[k]}
    assert not mismatched


def test_the_benchmark_reference_matches():
    # perfbench/reference.py recomputes the exit code, error code and payload
    # digest of every cli-mixed operation and compares them with the
    # committed reference.json; it is never run with --write here
    import subprocess

    script = Path(__file__).resolve().parent.parent / "perfbench" / "reference.py"
    run = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "reference.json matches"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = corpus_outcomes(Path(tmp))
    sys.stdout.write("EXPECTED = {\n")
    for name, value in table.items():
        fields = ", ".join("None" if x is None else json.dumps(x) for x in value)
        sys.stdout.write(f'    "{name}": [{fields}],\n')
    sys.stdout.write("}\n")
