"""Command-line front end.

Subcommands: check, classify, construct, extend, cohomology, curvature,
invariant-forms.  Exit codes: 0 success, 2 input/parse, 3 precondition,
4 internal contradiction.  `--json` wraps results in a stable report
envelope (see schema/report.schema.json); without it a human-readable
summary is printed.  Files compose the pipeline; `-` reads a document from
stdin so constructions can be piped into `classify`.

The d eta sign convention is d eta(X, Y) = -eta([X, Y]) everywhere.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from pathlib import Path

from . import io as aqio
from .acm import (
    CLASS_ANTI_QUASI_SASAKIAN,
    CLASS_DOUBLE_AQS_SASAKIAN,
    CLASS_QUASI_SASAKIAN,
    classify_structure,
    curvature,
    double_aqs_check,
    sectional_curvatures,
    structure_rank,
    validate_acm,
    xi_killing_check,
)
from .classifier import classify_nilpotent_aqs, classify_nilpotent_qs
from .constructors import (
    central_extension,
    su2,
    su3,
    weighted_heisenberg_2n1,
    weighted_heisenberg_4n1,
)
from .errors import (
    AqslieError,
    InputError,
    InternalContradiction,
    NotAqs,
    PreconditionError,
    ScalarParseError,
)
from .exterior import ce_bettis
from .invariant_forms import (
    centralizer_of_torus,
    center_of_k,
    invariant_closed_2forms,
    moment_element,
    reductive_split,
    synthesize_j_dim2,
    type_11_check,
)
from .lie_core import lower_central_series
from .linalg import Subspace
from .scalars import finite_positive, parse_scalar, s_str, set_tolerance

REPORT_SCHEMA = "aqslie.report.v1"


def _read_text(path: str) -> str:
    try:  # strict UTF-8 from stdin as from a file; a UnicodeDecodeError names the byte offset
        return Path(path).read_text("utf-8") if path != "-" else sys.stdin.buffer.read().decode()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _parse(text: str, *kinds: str) -> tuple:
    """(kind, object) read from the document text, of one of kinds."""
    return aqio.read(aqio.loads(text), *kinds)


def _comma_list(text: str, flag: str, allowed: range | None = None) -> list:
    """The items of the comma list given to flag: strings, or with allowed
    the integers in that range.  An empty, non-integer or out-of-range item
    is an InputError."""
    items = [t.strip() for t in text.split(",")]
    if not all(items):
        raise InputError(f"bad {flag} list")
    if allowed is None:
        return items
    try:
        values = [int(t) for t in items]
    except ValueError as exc:
        raise InputError(f"bad {flag} list") from exc
    for v in values:
        if v not in allowed:
            raise InputError(f"{flag}: {v} is not in [{allowed.start}, {allowed.stop - 1}]")
    return values


# ---------------------------------------------------------------------------
# subcommand handlers: each returns a payload dict
# ---------------------------------------------------------------------------

def cmd_check(args) -> dict:
    kind, obj = _parse(args.text, "lie_algebra", "acm_structure", "kahler_lie_algebra")
    payload: dict = {"kind": kind}
    if kind == "lie_algebra":  # the reader raises JacobiError on violators
        payload["dim"] = obj.dim
        payload["jacobi"] = "pass"
        payload["nilpotent"] = lower_central_series(obj).is_nilpotent
    elif kind == "acm_structure":
        S, companions = obj
        payload["dim"] = S.L.dim
        payload["jacobi"] = "pass"
        reports = [validate_acm(S)] + [validate_acm(c) for c in companions]
        payload["structures"] = [
            {
                "valid": r.passed,
                "worst_check": r.worst_check,
                "max_residual": s_str(r.max_residual),
            }
            for r in reports
        ]
        if not all(r.passed for r in reports):
            raise InputError(
                "structure identities fail: "
                + ", ".join(r.worst_check for r in reports if not r.passed)
            )
    else:
        payload["valid"] = True
    return payload


def cmd_classify(args) -> dict:
    _, (S, companions) = _parse(args.text, "acm_structure")
    all_structures = [S] + companions
    payload: dict = {"structures": []}
    for T in all_structures:
        cls = classify_structure(T)
        payload["structures"].append({"tags": sorted(cls.tags)})
    if len(all_structures) == 3:
        dbl = double_aqs_check(*all_structures)
        payload["double_aqs_sasakian"] = dbl.ok
        if dbl.ok:
            payload["structures"][0]["tags"].append(CLASS_DOUBLE_AQS_SASAKIAN)
    rr = structure_rank(S)
    payload["rank"] = {"rank": rr.rank, "maximal": rr.is_maximal, "parity": rr.parity}
    payload["xi_killing"] = xi_killing_check(S)
    tags = set(payload["structures"][0]["tags"])
    if CLASS_ANTI_QUASI_SASAKIAN in tags:
        iso = classify_nilpotent_aqs(S)
    elif CLASS_QUASI_SASAKIAN in tags:
        iso = classify_nilpotent_qs(S)
    else:
        raise NotAqs("structure is neither anti-quasi-Sasakian nor quasi-Sasakian")
    payload["normal_form"] = {
        "family": iso.family,
        "n": iso.n,
        "weights": [s_str(w) for w in iso.weights],
        "phi_signs": list(iso.phi_signs),
        "target_phi_index": iso.target_phi_index,
        "F": [[s_str(x) for x in row] for row in iso.F_mat()],
    }
    return payload


def cmd_construct(args) -> dict:
    # argparse has already limited the model to heisenberg and the family to 4n1 or 2n1
    try:
        parsed = [parse_scalar(w) for w in _comma_list(args.weights, "--weights")]
    except ScalarParseError as exc:  # named like a document scalar names its JSON path
        raise ScalarParseError(f"--weights: {exc}") from exc
    if args.dim_family == "4n1":
        _, (s1, s2, s3) = weighted_heisenberg_4n1(len(parsed), parsed)
        doc = aqio.structure_to_json(s1, companions=[s2.phi_mat(), s3.phi_mat()])
    else:
        _, s = weighted_heisenberg_2n1(len(parsed), parsed)
        doc = aqio.structure_to_json(s)
    return {"document": doc}


def cmd_extend(args) -> dict:
    _, H = _parse(_read_text(args.kahler), "kahler_lie_algebra")
    _, w = _parse(_read_text(args.cocycle), "k_form")
    _, S = central_extension(H, w)
    return {"document": aqio.structure_to_json(S)}


def cmd_cohomology(args) -> dict:
    kind, obj = _parse(args.text, "acm_structure", "lie_algebra")
    L = obj[0].L if kind == "acm_structure" else obj
    degrees = range(L.dim + 1)
    if args.degrees is not None:  # only a missing flag means every degree
        degrees = sorted(set(_comma_list(args.degrees, "--degrees", degrees)))
    return {"dim": L.dim, "betti": {str(k): b for k, b in ce_bettis(L, degrees).items()}}


def cmd_curvature(args) -> dict:
    _, (S, _) = _parse(args.text, "acm_structure")
    data = curvature(S)
    basis = [S.L.basis_vector(i) for i in range(S.L.dim)]
    sectional = zip(S.L.basis_names, sectional_curvatures(S, data, S.xi_vec(), basis))
    return {
        "scalar": s_str(data.scalar),
        "ricci": [[s_str(x) for x in row] for row in data.ricci],
        # None: a basis vector parallel to xi
        "xi_sectional": {name: s_str(K) for name, K in sectional if K is not None},
    }


def cmd_invariant_forms(args) -> dict:
    builtin = {"su2": su2, "su3": su3}.get(args.algebra)
    g = builtin() if builtin else _parse(_read_text(args.algebra), "lie_algebra")[1]
    torus = _comma_list(args.torus, "--torus", range(1, g.dim + 1))
    S = Subspace.from_vectors(g.dim, [g.basis_vector(t - 1) for t in torus])
    k = centralizer_of_torus(g, S)
    R = reductive_split(g, k)
    warnings = []
    recomputed = centralizer_of_torus(
        g, Subspace.from_vectors(g.dim, center_of_k(R))
    )
    if not recomputed.equals(k):
        msg = "k is not the centralizer of its own center"
        if args.strict:
            raise PreconditionError(msg)
        warnings.append(msg)
    sols = invariant_closed_2forms(R)
    moments = [moment_element(R, w) for w in sols]
    payload = {
        "k_dimension": k.dim,
        "m_dimension": R.m.dim,
        "solution_dimension": len(sols),
        "forms": [aqio.form_to_json(w, g.mode) for w in sols],
        "moment_elements": [[s_str(x) for x in Z] for Z in moments],
        "warnings": warnings,
    }
    J = None
    if args.J:
        _, J = _parse(_read_text(args.J), "matrix")
        if len(J) != R.m.dim:
            raise InputError("J size must match dim m")
    elif R.m.dim == 2:
        cands = synthesize_j_dim2(R)
        J = cands[0] if cands else None
    if J is not None:
        rep = type_11_check(R, sols, J)
        payload["type_11"] = {
            "j_ok": rep.j_ok,
            "j_failures": rep.j_failures,
            "invariant": rep.invariant,
            "anti_projection_zero": rep.anti_projection_zero,
        }
    else:
        payload["type_11"] = None
    return payload


# ---------------------------------------------------------------------------
# dispatch and reporting
# ---------------------------------------------------------------------------

def _add_global_flags(parser: argparse.ArgumentParser, **default) -> None:
    parser.add_argument(
        "--json", action="store_true", help="emit a machine-readable report", **default
    )
    parser.add_argument(
        "--tolerance",
        type=finite_positive,
        help="float-mode comparison tolerance (default 1e-9, env AQSLIE_TOLERANCE)",
        **default,
    )


@functools.cache  # built once per process: a parse leaves no state in it
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="aqslie",
        description="Exact classification of almost contact metric structures "
        "on Lie algebras (d eta(X,Y) = -eta([X,Y]) convention).",
    )
    _add_global_flags(p)
    # the subcommand copies set a flag only when given, so a flag placed
    # before the subcommand is not overwritten by their defaults
    common = argparse.ArgumentParser(add_help=False)
    _add_global_flags(common, default=argparse.SUPPRESS)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name: str, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    c = add("check", help="validate a file (Jacobi, structure identities)")
    c.add_argument("file")
    c.set_defaults(handler=cmd_check)

    c = add("classify", help="class tags, weights and normal form")
    c.add_argument("file", nargs="?", default="-")
    c.add_argument("--batch", default=None, help="process every .json file in a directory")
    c.set_defaults(handler=cmd_classify)

    c = add("construct", help="emit a built-in model as a structure file")
    c.add_argument("model", choices=["heisenberg"])
    c.add_argument("--dim-family", required=True, choices=["4n1", "2n1"])
    c.add_argument("--weights", required=True, help="comma list, e.g. 1,2")
    c.add_argument("-o", "--output", default=None)
    c.set_defaults(handler=cmd_construct, emits_document=True)

    c = add("extend", help="central extension of a Kahler algebra by a cocycle")
    c.add_argument("--kahler", required=True)
    c.add_argument("--cocycle", required=True)
    c.add_argument("-o", "--output", default=None)
    c.set_defaults(handler=cmd_extend, emits_document=True)

    c = add("cohomology", help="Chevalley-Eilenberg Betti numbers")
    c.add_argument("file")
    c.add_argument("--degrees", default=None, help="comma list of degrees")
    c.set_defaults(handler=cmd_cohomology)

    c = add("curvature", help="scalar curvature and xi-sectional table")
    c.add_argument("file")
    c.set_defaults(handler=cmd_curvature)

    c = add("invariant-forms", help="closed invariant 2-forms on g/k")
    c.add_argument("--algebra", required=True, help="file, or builtin su2 / su3")
    c.add_argument("--torus", required=True, help="1-based basis indices, e.g. 1,2")
    c.add_argument("--J", default=None, help="matrix file with J on m")
    c.add_argument("--strict", action="store_true")
    c.set_defaults(handler=cmd_invariant_forms)
    return p


def _summary(command: str, payload: dict) -> str:
    lines = [f"aqslie {command}: ok"]
    if command == "classify":
        for t, entry in enumerate(payload["structures"]):
            lines.append(f"  structure {t + 1}: {', '.join(entry['tags'])}")
        nf = payload.get("normal_form")
        if nf:
            lines.append(
                f"  normal form: h^{{{nf['family']}}} with weights ({', '.join(nf['weights'])})"
            )
        rr = payload["rank"]
        lines.append(f"  rank {rr['rank']} ({'maximal' if rr['maximal'] else 'not maximal'})")
    elif command == "cohomology":
        betti = ", ".join(f"b{k}={v}" for k, v in payload["betti"].items())
        lines.append(f"  {betti}")
    elif command == "curvature":
        lines.append(f"  scalar curvature: {payload['scalar']}")
        if payload["xi_sectional"]:
            sec = ", ".join(f"K(xi,{k})={v}" for k, v in payload["xi_sectional"].items())
            lines.append(f"  {sec}")
    elif command == "invariant-forms":
        lines.append(
            f"  dim k = {payload['k_dimension']}, dim m = {payload['m_dimension']}, "
            f"solution space dimension = {payload['solution_dimension']}"
        )
        if payload.get("type_11"):
            t11 = payload["type_11"]
            lines.append(
                f"  type (1,1): J ok = {t11['j_ok']}, invariant = {t11['invariant']}, "
                f"anti-invariant projection zero = {t11['anti_projection_zero']}"
            )
    else:
        lines.append("  " + json.dumps(payload, sort_keys=True, default=str))
    return "\n".join(lines)


def _run_single(args) -> tuple[int, dict]:
    started, digest = time.monotonic(), None
    try:
        in_file = getattr(args, "file", None)
        if in_file is not None:  # read once: the digest is of the text that is parsed
            args.text = _read_text(in_file)
            digest = None if in_file == "-" else aqio.digest(args.text)
        return _report(args, started, digest, args.handler(args), None)
    except Exception as exc:
        return _report(args, started, digest, None, exc)


def _report(args, started: float, digest, payload, exc: Exception | None) -> tuple[int, dict]:
    """(exit code, report envelope) of a payload, or of the exception raised instead."""
    error, code = None, 0
    if exc is not None:
        if not isinstance(exc, AqslieError):  # outside the taxonomy: a defect
            tb = exc.__traceback__
            while tb.tb_next is not None:
                tb = tb.tb_next
            code_obj = tb.tb_frame.f_code
            exc = InternalContradiction(
                f"{type(exc).__name__}: {exc} "
                f"[in {code_obj.co_name}, {Path(code_obj.co_filename).name}:{tb.tb_lineno}]"
            )
        error = {"code": exc.code, "family": exc.family, "message": str(exc)}
        code = exc.exit_code
    report = {
        "schema": REPORT_SCHEMA,
        "command": args.command,
        "input_digest": digest,
        "payload": payload,
        "error": error,
        "wall_time_s": round(time.monotonic() - started, 6),
    }
    return code, report


def _write_text(path, text: str) -> None:
    try:
        Path(path).write_text(text, "utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    tol = args.tolerance
    if tol is None and os.environ.get("AQSLIE_TOLERANCE"):
        try:
            tol = finite_positive(os.environ["AQSLIE_TOLERANCE"])
        except ValueError:
            print("bad AQSLIE_TOLERANCE, ignoring", file=sys.stderr)
    if tol is not None:
        set_tolerance(tol)

    started, out = time.monotonic(), None
    try:  # a directory or file the command cannot use is reported like a bad input
        if getattr(args, "batch", None):  # each input's report beside it; the worst code
            if not Path(args.batch).is_dir():
                raise InputError(f"not a directory: {args.batch}")
            codes = [0]
            for path in sorted(Path(args.batch).glob("*.json")):
                if not path.name.endswith(".report.json"):
                    args.file = str(path)
                    code, report = _run_single(args)
                    _write_text(path.with_name(path.stem + ".report.json"), aqio.dumps(report))
                    codes.append(code)
            return max(codes)
        code, report = _run_single(args)
        if report["error"] is None and getattr(args, "emits_document", False):
            text = aqio.dumps(report["payload"]["document"])
            if args.output:
                _write_text(args.output, text)
                report["payload"] = {"written": args.output, "digest": aqio.digest(text)}
            out = "" if args.output else text  # a document is its own summary, a file none
    except InputError as exc:
        code, report = _report(args, started, None, None, exc)
    if args.json:
        out = aqio.dumps(report)
    elif out is None and report["error"] is None:
        out = _summary(args.command, report["payload"]) + "\n"
    try:
        sys.stdout.write(out or "")
        sys.stdout.flush()
    except BrokenPipeError as exc:  # closed by the reader: the rest goes to devnull (signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        closed = InputError(f"cannot write to stdout: {exc}")
        args.json, (code, report) = False, _report(args, started, None, None, closed)
    if report["error"] is not None and not args.json:
        err = report["error"]
        print(
            f"aqslie {args.command}: {err['code']} ({err['family']}): {err['message']}",
            file=sys.stderr,
        )
    return code


if __name__ == "__main__":
    raise SystemExit(main())
