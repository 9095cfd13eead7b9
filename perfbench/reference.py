"""Build or verify ``reference.json``, the expected outputs the benchmark
checks against: exit code, error code and canonical payload digest of every
cli-mixed operation, taken after semantic checks of the payloads.

    python3 perfbench/reference.py           # recompute and compare
    python3 perfbench/reference.py --write   # recompute and overwrite
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import comb
from pathlib import Path

from run import OUT, import_library

HERE = Path(__file__).resolve().parent
PATH = HERE / "reference.json"


def require(condition, what) -> None:
    if not condition:
        raise RuntimeError(f"reference cross-check failed: {what}")


def heisenberg_betti(dim: int, k: int) -> int:
    """b_k of the Heisenberg algebra h_{2m+1} (Santharoubane)."""
    m = (dim - 1) // 2
    if k > m:
        k = dim - k
    return comb(2 * m, k) - (comb(2 * m, k - 2) if k >= 2 else 0)


def cli_table() -> dict:
    from workloads import CLI_OPS, CliMixed, cli_outcome

    w = CliMixed(OUT / f"reference-{os.getpid()}")
    w.write_inputs()
    table = {}
    try:
        for kind, template in CLI_OPS:
            op = w._op(kind, template)
            argv = op.build()
            code, text = op.call(argv)
            report = json.loads(text)
            check_semantics(kind, code, report)
            table[kind] = cli_outcome(kind, code, text)
            print(f"cli {kind}: {table[kind]}")
    finally:
        w.close()
    return table


def check_semantics(kind: str, code: int, report: dict) -> None:
    """What the payloads must say, independent of their exact bytes."""
    payload = report["payload"]
    if kind == "classify-sqrt7":
        require(code == 3 and report["error"]["code"] == "IrrationalSpectrum", kind)
        return
    require(code == 0 and report["error"] is None, (kind, report["error"]))
    if kind == "classify-sqrt13":
        require(payload["normal_form"]["weights"] == ["3/2*sqrt(5)", "sqrt(2)", "1"], kind)
    elif kind == "curvature-sqrt13":
        require(payload["scalar"] == "-57", kind)  # -4 (2 + 1 + 45/4)
    elif kind.startswith("cohomology"):
        dim = 13 if kind.endswith("13") else 7
        require(payload["betti"] == {str(k): heisenberg_betti(dim, k) for k in (0, 1, 2)}, kind)
    elif kind.startswith("classify-float"):
        weights = [float(x) for x in payload["normal_form"]["weights"]]
        expected = [3.0, 2.0, 1.0] if kind.endswith("13") else [2.0, 1.0]
        require(max(abs(a - b) for a, b in zip(weights, expected)) < 1e-9, kind)
    elif kind.startswith("invariant-forms"):
        dim = 1 if "su2" in kind else 2
        require(payload["solution_dimension"] == dim, kind)
        require(payload["type_11"] is None or payload["type_11"]["anti_projection_zero"], kind)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="overwrite reference.json")
    args = parser.parse_args()
    import_library()
    fresh = {"cli": cli_table()}
    if args.write:
        PATH.write_text(json.dumps(fresh, indent=2, sort_keys=True) + "\n", "utf-8")
        print(f"wrote {PATH.name}")
        return 0
    committed = json.loads(PATH.read_text("utf-8"))
    if committed != fresh:
        print("reference.json differs from a fresh computation", file=sys.stderr)
        return 1
    print("reference.json matches")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
