"""aqslie benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload classify-dense --seed 1 --seconds 20 --trace 0

Run from anywhere; the library is taken from ``src/`` next to this
directory.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 7  # fresh interpreters whose set-up time is reported as a median
REFERENCE_NOMINAL_S = 0.025  # reference_loop() at the nominal host speed
TAIL_BEYOND = 10  # the tail percentile has at least this many samples above it
ACCOUNTED_TOLERANCE = 0.02  # traced pass: self times + harness time vs wall time
UNCOVERED_TOLERANCE = 0.01  # traced pass: operation time outside every layer's spans


class SetupError(Exception):
    pass


def import_library() -> None:
    """Import ``aqslie`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "aqslie" / "__init__.py").is_file():
        raise SetupError(f"no aqslie sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import aqslie

    if Path(aqslie.__file__).resolve().parent != SRC / "aqslie":
        raise SetupError(f"imported aqslie from {aqslie.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

@dataclass
class Sample:
    kind: str
    round: int
    seconds: float  # timed span of the operation
    ok: bool
    error: str | None
    harness_s: float  # untimed build, reference loop and check around it
    reference_s: float  # mean of reference_loop() just before and just after it


@dataclass
class Pass:
    samples: list
    wall_s: float
    rounds: int


def reference_loop() -> float:
    """Seconds for a fixed standard-library Fraction computation that shares
    no code with aqslie: a yardstick for the host's speed at this moment."""
    start = time.perf_counter()
    x = Fraction(0)
    for i in range(1, 4000):
        x = (x + Fraction(i, i + 1)) * Fraction(3, 4)
        if i % 40 == 0:
            x = Fraction(x.numerator % 1000003, x.denominator % 1000003 + 1)
    return time.perf_counter() - start


def run_op(op, index: int, round_: int, tracer=None, counters=None) -> Sample:
    clock = time.perf_counter
    begin = clock()
    try:
        arg = op.build()
    except Exception as exc:  # the program failed before the timed span
        error = f"build: {type(exc).__name__}: {exc}"
        return Sample(op.kind, round_, 0.0, False, error, clock() - begin, reference_loop())
    gc.collect()
    reference = reference_loop()
    harness = clock() - begin
    out, error = None, None
    span = tracer.operation(index) if tracer else contextlib.nullcontext([])
    with span as bounds:
        if counters:
            counters.active = True
        start = clock()
        try:
            out = op.call(arg)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        end = clock()
        if counters:
            counters.active = False
    if bounds:  # traced: the root span is the operation's timed extent
        start, end = bounds
    checked = clock()
    reference = (reference + reference_loop()) / 2
    if error is None:
        try:
            if not op.check(arg, out):
                error = "wrong answer"
        except Exception as exc:
            error = f"check: {type(exc).__name__}: {exc}"
    harness += clock() - checked
    return Sample(op.kind, round_, end - start, error is None, error, harness, reference)


def run_pass(workload, seed: int, rounds: int, seconds: float = 0.0, **hooks) -> Pass:
    """At least ``rounds`` whole rounds, continuing until ``seconds`` have passed."""
    from workloads import InputProperties

    rng = random.Random(seed)
    workload.props = InputProperties()  # describe this pass's inputs only
    samples: list = []
    start = time.perf_counter()
    done = 0
    while done < rounds or time.perf_counter() - start < seconds:
        for op in workload.round(rng, done):
            samples.append(run_op(op, len(samples), done, **hooks))
        done += 1
    return Pass(samples, time.perf_counter() - start, done)


def rounds_for(seconds: float, workload, least: int = 1) -> int:
    """Whole rounds for ``seconds`` at the workload's nominal pace, and never
    fewer than ``least``."""
    return max(math.ceil(seconds / workload.nominal_round_s), least)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def set_up(name: str):
    """Import, input generation and one untimed warm-up operation; returns
    the workload, the seconds taken and the median of reference_loop() times
    taken just before and just after, the host's speed at that moment."""
    before = reference_loop()
    start = time.perf_counter()
    import_library()
    import workloads

    workload = workloads.make(name, OUT / f"work-{os.getpid()}")
    try:
        workload.setup()
        warm = run_op(workload.warmup(), -1, -1)
        if not warm.ok:
            raise SetupError(f"warm-up {warm.kind} failed: {warm.error}")
    except BaseException:
        workload.close()
        raise
    seconds = time.perf_counter() - start
    reference = statistics.median([before, reference_loop(), reference_loop()])
    return workload, (seconds, reference)


def setup_in_fresh_interpreter(name: str) -> tuple[float, float]:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", name, "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return tuple(json.loads(proc.stdout.splitlines()[-1])["setup"])


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def nearest_rank(times: list, rank: int) -> float:
    """Value at 1-based ``rank`` of (ok, seconds) pairs; failed operations
    rank above every success and, when selected, read as the run's whole
    timed wall time."""
    ordered = sorted(times, key=lambda t: (not t[0], t[1]))
    ok, seconds = ordered[rank - 1]
    return seconds if ok else sum(t for _, t in times)


def end_to_end(run: Pass, tail_rounds: int, setups: list, peak_rss_mb: float) -> tuple[dict, dict]:
    """The timing metrics, scaled to the nominal host speed: each operation's
    time is multiplied by REFERENCE_NOMINAL_S / (the mean of the
    reference_loop() times taken just before and just after it), and each
    set-up sample by the reference times taken next to it.  The values as
    measured go into the notes."""
    samples = run.samples
    ok = sum(s.ok for s in samples)
    n = len(samples)
    in_pool = [s.round < tail_rounds for s in samples]
    tail_rank = sum(in_pool) - TAIL_BEYOND
    if tail_rank < 1:
        raise SetupError(f"tail pool of {sum(in_pool)} operations is too small")

    def timing(times: list, setup_times) -> dict:
        return {
            "ops_per_s": ok / sum(t for _, t in times),
            "latency_p50_s": nearest_rank(times, math.ceil(n / 2)),
            "latency_tail_s": nearest_rank([t for t, p in zip(times, in_pool) if p], tail_rank),
            "setup_s": statistics.median(setup_times),
        }

    measured = timing([(s.ok, s.seconds) for s in samples], [t for t, _ in setups])
    metrics = timing(
        [(s.ok, s.seconds * REFERENCE_NOMINAL_S / s.reference_s) for s in samples],
        [t * REFERENCE_NOMINAL_S / ref for t, ref in setups],
    )
    metrics["peak_rss_mb"] = peak_rss_mb
    metrics["ok_ratio"] = ok / n
    notes = {
        "as_measured": measured,
        "reference_loop_s": statistics.median(s.reference_s for s in samples),
        "operations": n,
        "rounds": run.rounds,
        "timed_wall_s": sum(s.seconds for s in samples),
        "measured_wall_s": run.wall_s,
        "fail_ratio": 1 - ok / n,
        "tail_percentile": 100 * tail_rank / sum(in_pool),
        "tail_samples": sum(in_pool),
        "tail_rounds": tail_rounds,
        "setup_samples": [{"seconds": t, "reference_loop_s": ref} for t, ref in setups],
    }
    return metrics, notes


def per_layer(untraced: Pass, traced: Pass, tracer, counters) -> tuple[dict, dict]:
    from layers import public_functions

    calls, self_s, least_self = tracer.self_times()
    values: dict = {}
    for fn_name in (set(public_functions().values()) | set(calls)) - {tracer.ROOT}:
        if fn_name.startswith("scalars."):
            continue  # not traced; counted in the count-only pass
        layer = fn_name.split(".")[0]
        values[f"{fn_name}.calls"] = calls.get(fn_name, 0)
        values[f"{fn_name}.self_s"] = self_s.get(fn_name, 0.0)
        values[f"{layer}.calls"] = values.get(f"{layer}.calls", 0) + calls.get(fn_name, 0)
        values[f"{layer}.self_s"] = values.get(f"{layer}.self_s", 0.0) + self_s.get(fn_name, 0.0)
    root = tracer.ROOT
    layer_self = sum(v for k, v in self_s.items() if k != root)
    harness = self_s.get(root, 0.0) + sum(s.harness_s for s in traced.samples)
    traced_ops = sum(s.seconds for s in traced.samples)
    values.update({
        "scalars.calls": counters.scalar_calls,
        "scalars.ext_share": counters.ext_calls / max(counters.scalar_calls, 1),
        "linalg.max_bits": counters.elim_max_bits,
        "linalg.entries": counters.elim_entries,
        "harness.self_s": harness,
        "trace.overhead_ratio": traced_ops / sum(s.seconds for s in untraced.samples),
    })
    notes = {
        "trace.accounted_share": (layer_self + harness) / traced.wall_s,
        "trace.uncovered_share": self_s.get(root, 0.0) / traced_ops,
        "trace.least_span_self_s": least_self,
        "trace.spans": len(tracer.spans),
        "trace.traced_wall_s": traced.wall_s,
        "trace.rounds": traced.rounds,
    }
    return values, notes


def select(values: dict, declared: list) -> dict:
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise SetupError(f"metrics not produced: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def metadata() -> dict:
    sources = sorted((SRC / "aqslie").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "commit": git_commit(),
        "source_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_aqslie_lines": lines,
    }


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def print_table(title: str, rows: list) -> None:
    print(title)
    for name, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<34} {shown:>14} {unit}")


def print_layers(values: dict, traced_wall: float) -> None:
    print(f"per-layer self time (traced wall {traced_wall:.3f} s)")
    print(f"  {'layer':<28} {'calls':>10} {'self_s':>10} {'share':>7}")
    layers = sorted(
        {k[: -len('.self_s')] for k in values if k.endswith(".self_s") and k.count(".") == 1}
    )
    for layer in [x for x in layers if x != "scalars"] + ["harness"]:
        calls = values.get(f"{layer}.calls", "")
        own = values[f"{layer}.self_s"]
        print(f"  {layer:<28} {calls!s:>10} {own:>10.4f} {own / traced_wall:>7.1%}")
    functions = [
        (k[: -len(".self_s")], v) for k, v in values.items()
        if k.endswith(".self_s") and k.count(".") == 2 and v > 0
    ]
    print("  top functions by self time:")
    for name, own in sorted(functions, key=lambda kv: -kv[1])[:15]:
        print(f"    {name:<34} {values[name + '.calls']:>8} {own:>10.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="aqslie benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
        workload, own_setup = set_up(args.workload)
    except (SetupError, OSError, ImportError, KeyError) as exc:
        print(f"benchmark set-up failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    try:
        if args.setup_only:
            print(json.dumps({"setup": own_setup}))
            return 0
        return measure(args, workload, own_setup, declared)
    finally:
        workload.close()


def measure(args, workload, own_setup: tuple, declared: dict) -> int:
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "metadata": metadata()}
    problems = []
    if args.trace == 0:
        rounds = rounds_for(args.seconds, workload, workload.tail_rounds)
        run = run_pass(workload, args.seed, rounds, args.seconds)
        passes = [run]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if hasattr(workload, "known_defect"):
            record["known_defect"] = workload.known_defect()
        setups = [own_setup] + [
            setup_in_fresh_interpreter(args.workload) for _ in range(SETUP_SAMPLES - 1)
        ]
        values, notes = end_to_end(run, workload.tail_rounds, setups, peak_rss_mb)
        metrics = select(values, declared["end_to_end"])
        print_table(f"{args.workload} seed {args.seed}: end-to-end", [
            (k, v["value"], v["unit"]) for k, v in metrics.items()
        ])
        print(f"  as measured, before scaling (median reference loop "
              f"{notes['reference_loop_s'] * 1000:.2f} ms): "
              + ", ".join(f"{k} {v:.6g}" for k, v in notes["as_measured"].items()))
        print(f"  latency_tail_s is p{notes['tail_percentile']:.1f} of {notes['tail_samples']} "
              f"operations (first {workload.tail_rounds} rounds); fail_ratio {notes['fail_ratio']:.4f} "
              f"of {notes['operations']} operations in {run.rounds} rounds")
    else:
        from layers import Counters, Tracer

        rounds = rounds_for(args.seconds / 3, workload)
        untraced = run_pass(workload, args.seed, rounds)
        tracer = Tracer()
        with tracer.installed():
            traced = run_pass(workload, args.seed, rounds, tracer=tracer)
        counters = Counters()
        with counters.installed():
            counted = run_pass(workload, args.seed, rounds, counters=counters)
        passes = [untraced, traced, counted]
        values, notes = per_layer(untraced, traced, tracer, counters)
        metrics = select(values, declared["per_layer"])
        print_layers(values, traced.wall_s)
        print_table(f"{args.workload} seed {args.seed}: per-layer", [
            (k, v["value"], v["unit"]) for k, v in metrics.items()
        ])
        share = notes["trace.accounted_share"]
        uncovered = notes["trace.uncovered_share"]
        print(f"  self times + harness cover {share:.2%} of the traced wall time; "
              f"{uncovered:.2%} of the traced operation time is in no layer's span")
        if abs(share - 1) > ACCOUNTED_TOLERANCE:
            problems.append(f"span accounting off: {share:.4f} of the traced wall time")
        if uncovered > UNCOVERED_TOLERANCE:
            problems.append(f"{uncovered:.4f} of the operation time is outside every layer")
        if notes["trace.least_span_self_s"] < -1e-6:
            problems.append(f"a span has negative self time: {notes['trace.least_span_self_s']}")
        tracer.write(stem.with_suffix(".spans.jsonl.gz"))
        record["all_layer_values"] = values
    record.update(notes=notes, properties=workload.props.summary(), metrics=metrics)
    for key in ("properties", "metadata", "known_defect"):
        if key in record:
            print(f"{key}: {json.dumps(record[key], sort_keys=True)}")
    samples = [s for p in passes for s in p.samples]
    failures = [s for s in samples if not s.ok]
    for s in failures[:10]:
        print(f"FAILED {s.kind} (round {s.round}): {s.error}")
    record["failures"] = [(s.kind, s.round, s.error) for s in failures]
    record["samples"] = [
        (s.kind, s.round, s.seconds, s.ok, s.reference_s) for s in passes[0].samples
    ]
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    for problem in problems:
        print(f"PROBLEM {problem}")
    result = {
        "correct": not failures and not problems,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
