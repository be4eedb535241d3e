"""Command-line front end.

Subcommands: qsh, surj-log, logflow, matrix-log, verify, simulate,
flow-compare.  Each declares only the flags it reads: --json for machine
output, --out FILE to write instead of printing, --max-grade to set the
size caps for one call, --seed, and --deterministic to suppress the report
timestamp.  A default that the called library function has is left to it.
Exit codes: 0 success, 1 verification failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from dataclasses import replace

import numpy as np

from ._config import FloatRangeError, _count, _decimal, _float, caps, weight_cap
from .flowmaps import DriverAlphabet, log_flow_terms, terms_to_json
from .flows import compare_flows
from .logseries import (
    log_identity_closed_form,
    log_identity_series,
    log_identity_subset_form,
    strichartz_restriction,
)
from .matrixseries import matrix_ito_taylor, matrix_log
from .paths import DriverSpec, make_grid, simulate_bundle, write_bundle, bundle_to_csv
from .quasishuffle import qsh
from .verify import SUITES, _strictly_falling, flow_problem, run_suite
from .words import UNIT_WORD, Expansion, parse_word

LOG_FORMS = {
    "closed": log_identity_closed_form,
    "series": log_identity_series,
    "subset": log_identity_subset_form,
    "strichartz": strichartz_restriction,
}

FLAGS = {
    "--json": dict(action="store_true", help="emit JSON instead of text"),
    "--out": dict(metavar="FILE", help="write output to FILE"),
    "--max-grade": dict(
        type=int,
        metavar="N",
        help="set the surjection-grade cap to N and raise the word-weight cap "
        "to at least N, for this call only",
    ),
    "--seed": dict(type=int, default=argparse.SUPPRESS, help="master seed"),
    "--deterministic": dict(action="store_true", help="suppress the timestamp field in reports"),
}
OUTPUT_FLAGS = ("--json", "--out", "--max-grade")
REPORT_FLAGS = OUTPUT_FLAGS + ("--seed", "--deterministic")


def _flags(p: argparse.ArgumentParser, names) -> None:
    for name in names:
        p.add_argument(name, **FLAGS[name])


def _given(args, *names) -> dict:
    """The named flags the command line set; the others keep the library's defaults."""
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _call_caps(n):
    """The caps for one call: grade cap n and a word-weight cap of at least n."""
    if n is None:
        return caps()
    n = _count("--max-grade", n)
    return caps(grade=n, weight=max(n, weight_cap()))


def _emit_report(args, payload: dict, lines: list) -> None:
    """A report's payload, stamped unless --deterministic, as indented JSON
    with --json, else its text lines."""
    if not args.deterministic:
        payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    _emit(args, json.dumps(payload, indent=2) if args.json else "\n".join(lines))


def _emit_result(args, result) -> int:
    """An exact result as indented JSON with --json, else as its pretty text."""
    _emit(args, json.dumps(result.to_json_dict(), indent=2) if args.json else result.pretty())
    return 0


def cmd_qsh(args) -> int:
    # an empty shell argument is the unit word, like the literal "e"
    words = [parse_word(w) if w else UNIT_WORD for w in args.words]
    return _emit_result(args, qsh(*words) if words else Expansion.unit())


def cmd_surj_log(args) -> int:
    return _emit_result(args, LOG_FORMS[args.form](args.grade))


def cmd_logflow(args) -> int:
    # the templates read only continuity, not the number of drivers
    alphabet = DriverAlphabet(n_primary=1, continuous=args.continuous)
    terms = log_flow_terms(alphabet, args.order)
    text = terms_to_json(terms, indent=2) if args.json else "\n".join(t.pretty() for t in terms)
    _emit(args, text)
    return 0


def cmd_matrix_log(args) -> int:
    series = matrix_ito_taylor if args.taylor else matrix_log
    return _emit_result(args, series(args.dim, args.order))


def cmd_verify(args) -> int:
    params = inspect.signature(SUITES[args.suite]).parameters
    kwargs = _given(args, "grade", "steps", "paths", "seed")
    unread = [f"--{name}" for name in kwargs if name not in params]
    if unread:
        raise ValueError(f"suite {args.suite} does not take {', '.join(unread)}")
    ok, reports = run_suite(args.suite, **kwargs)
    # a suite without a seed (theorem) reports seed 0
    seed = kwargs.get("seed", params["seed"].default if "seed" in params else 0)
    lines = [
        f"[{'PASS' if r['pass'] else 'FAIL'}] {r['test']} "
        f"(err {r['max_abs_err']:.3g}, tol {r['tolerance']:.3g})"
        for r in reports
    ]
    lines.append(f"suite {args.suite}: {'PASS' if ok else 'FAIL'} (seed {seed})")
    _emit_report(args, {"suite": args.suite, "pass": ok, "cases": reports}, lines)
    return 0 if ok else 1


def _parse_driver(spec: str) -> DriverSpec:
    kind, _, param = spec.partition(":")
    kind = kind.strip().lower()
    value = _float(param) if param else 1.0
    if kind == "brownian":
        return DriverSpec(kind, sigma=value)
    if kind == "poisson":
        return DriverSpec(kind, rate=value)
    if kind in ("drift", "linear_drift"):
        return DriverSpec("linear_drift", slope=value)
    raise ValueError(f"unknown driver {kind!r}; use brownian, poisson or drift")


def cmd_simulate(args) -> int:
    specs = {i: _parse_driver(s) for i, s in enumerate(args.drivers.split(","), 1)}
    grid = make_grid(args.horizon, args.steps)
    bundle = simulate_bundle(specs, grid, **_given(args, "seed", "path_index"))
    if args.out:
        write_bundle(args.out, bundle)
    else:
        print(bundle_to_csv(bundle))
    return 0


def _parse_matrix(text: str, dim: int) -> np.ndarray:
    rows = [r.split(",") for r in text.split(";") if r.strip()]
    if len(rows) != dim or any(len(r) != dim for r in rows):
        raise ValueError(f"matrix {text!r} is not {dim}x{dim}")
    fields = [v for r in rows for v in r]
    # float() reads other scripts' digits too, which _float then refuses by name
    try:
        list(map(float, fields))
    except ValueError:
        raise ValueError(f"matrix {text!r} has a field that is not a float") from None
    return np.array(list(map(_float, fields))).reshape(dim, dim)


def cmd_flow_compare(args) -> int:
    problem = flow_problem(args.steps, **_given(args, "dim", "horizon"))
    if args.drift:
        problem = replace(problem, drift=_parse_matrix(args.drift, problem.dim))
    if args.diffusion:
        problem = replace(problem, diffusion=_parse_matrix(args.diffusion, problem.dim))
    orders = [_decimal(k.strip()) for k in args.orders.split(",")]
    if None in orders:
        raise ValueError(f"--orders must be a comma list of positive ints, not {args.orders!r}")
    report = compare_flows(problem, orders, args.paths, args.seed)
    lines = [
        f"dim {problem.dim}, T {problem.horizon}, steps {args.steps}, "
        f"paths {args.paths}, seed {args.seed}"
    ]
    for k in report["orders"]:
        lines.append(
            f"order {k}: strong error {report['mean_strong_error_log'][str(k)]:.6g}, "
            f"log-vs-taylor gap {report['mean_gap_log_vs_taylor'][str(k)]:.6g}"
        )
    _emit_report(args, report, lines)
    errs = [report["mean_strong_error_log"][str(k)] for k in report["orders"]]
    return 0 if _strictly_falling(errs) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="itoflow",
        description="Exact quasi-shuffle and surjection algebra for logs of Ito flows",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("qsh", help="quasi-shuffle product of word literals")
    p.add_argument("words", nargs="+", help="word literals like 1.2 or [1,3].2")
    _flags(p, OUTPUT_FLAGS)
    p.set_defaults(fn=cmd_qsh)

    p = sub.add_parser("surj-log", help="log of the identity series of surjections")
    p.add_argument("--grade", type=int, default=4)
    p.add_argument(
        "--form", choices=tuple(LOG_FORMS), default="closed", help="strichartz: bijection part only"
    )
    _flags(p, OUTPUT_FLAGS)
    p.set_defaults(fn=cmd_surj_log)

    p = sub.add_parser("logflow", help="flow-map log templates")
    p.add_argument("--order", type=int, default=3)
    p.add_argument(
        "--continuous",
        action="store_true",
        help="restrict to continuous drivers (drops deep-bracket terms)",
    )
    _flags(p, OUTPUT_FLAGS)
    p.set_defaults(fn=cmd_logflow)

    p = sub.add_parser("matrix-log", help="entry-wise log of a linear matrix flow")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--order", type=int, default=3)
    p.add_argument("--taylor", action="store_true", help="emit the flow series instead")
    _flags(p, OUTPUT_FLAGS)
    p.set_defaults(fn=cmd_matrix_log)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=tuple(SUITES))
    p.add_argument("--grade", type=int, default=argparse.SUPPRESS)
    p.add_argument("--steps", type=int, default=argparse.SUPPRESS)
    p.add_argument("--paths", type=int, default=argparse.SUPPRESS)
    _flags(p, REPORT_FLAGS)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("simulate", help="simulate a driver bundle to CSV or a .bin/.itopath file")
    p.add_argument(
        "--drivers",
        default="brownian:1.0",
        help="comma list like brownian:1.0,poisson:2.0,drift:1.0 (letters 1..n)",
    )
    p.add_argument("--horizon", type=_float, default=1.0)
    p.add_argument("--steps", type=int, default=1024)
    p.add_argument("--path-index", type=int, default=argparse.SUPPRESS)
    _flags(p, ("--out", "--seed"))
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("flow-compare", help="strong-error study of the flow routes")
    p.add_argument("--dim", type=int, default=argparse.SUPPRESS)
    p.add_argument("--orders", default="1,2,3")
    p.add_argument("--horizon", type=_float, default=argparse.SUPPRESS)
    p.add_argument("--steps", type=int, default=16384)
    p.add_argument("--paths", type=int, default=1000)
    p.add_argument("--drift", help="matrix as rows 'a,b;c,d'")
    p.add_argument("--diffusion", help="matrix as rows 'a,b;c,d'")
    _flags(p, REPORT_FLAGS)
    p.set_defaults(fn=cmd_flow_compare, seed=0)  # compare_flows takes no default seed

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _call_caps(getattr(args, "max_grade", None)):
            return args.fn(args)
    # CapExceeded and WordParseError are ValueErrors; a MemoryError is a
    # size flag too large to allocate
    except (ValueError, FloatRangeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
