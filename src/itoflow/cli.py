"""Command-line front end.

Subcommands: qsh, surj-log, logflow, matrix-log, verify, simulate,
flow-compare.  Common flags: --json for machine output, --out FILE to
write instead of printing, --seed for anything stochastic, --max-grade to
set the size caps for one call, --deterministic to suppress the report
timestamp.
Exit codes: 0 success, 1 verification failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import _config
from .flowmaps import DriverAlphabet, log_flow_terms, terms_to_json
from .flows import FlowProblem, compare_flows
from .logseries import (
    log_identity_closed_form,
    log_identity_series,
    log_identity_subset_form,
    strichartz_restriction,
)
from .matrixseries import matrix_ito_taylor, matrix_log
from .paths import DriverSpec, make_grid, simulate_bundle, write_bundle, bundle_to_csv
from .quasishuffle import qsh
from .verify import run_suite
from .words import UNIT_WORD, Expansion, parse_word


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.add_argument("--out", metavar="FILE", help="write output to FILE")
    p.add_argument("--seed", type=int, default=0, help="master seed for stochastic commands")
    p.add_argument(
        "--max-grade",
        type=int,
        metavar="N",
        help="set the surjection-grade cap to N and raise the word-weight cap "
        "to at least N, for this call only",
    )
    p.add_argument(
        "--deterministic",
        action="store_true",
        help="suppress the timestamp field in reports",
    )


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _apply_caps(args) -> None:
    if args.max_grade is not None:
        if args.max_grade < 1:
            raise ValueError("--max-grade must be >= 1")
        _config.set_grade_cap(args.max_grade)
        _config.set_weight_cap(max(args.max_grade, _config.weight_cap()))


def _emit_result(args, result) -> int:
    """An exact result as indented JSON with --json, else as its pretty text."""
    _emit(args, json.dumps(result.to_json_dict(), indent=2) if args.json else result.pretty())
    return 0


def cmd_qsh(args) -> int:
    # an empty shell argument is the unit word, like the literal "e"
    words = [parse_word(w) if w else UNIT_WORD for w in args.words]
    return _emit_result(args, qsh(*words) if words else Expansion.unit())


def cmd_surj_log(args) -> int:
    forms = {
        "closed": log_identity_closed_form,
        "series": log_identity_series,
        "subset": log_identity_subset_form,
    }
    el = forms[args.form](args.grade)
    if args.strichartz:
        el = strichartz_restriction(args.grade)
    return _emit_result(args, el)


def cmd_logflow(args) -> int:
    if args.matrix:
        return _emit_result(args, matrix_log(args.matrix, args.order))
    alphabet = DriverAlphabet(
        n_primary=args.drivers,
        continuous=args.continuous,
        cross_brackets_zero=args.continuous,
        paired_qv=args.continuous,
    )
    terms = log_flow_terms(alphabet, args.order)
    if args.json:
        _emit(args, terms_to_json(terms, indent=2))
    else:
        _emit(args, "\n".join(t.pretty() for t in terms))
    return 0


def cmd_matrix_log(args) -> int:
    series = matrix_ito_taylor if args.taylor else matrix_log
    return _emit_result(args, series(args.dim, args.order))


def cmd_verify(args) -> int:
    kwargs = {}
    if args.suite in ("algebra", "theorem"):
        kwargs["grade"] = args.grade
    if args.suite == "algebra":
        kwargs["seed"] = args.seed
    if args.suite == "pathwise":
        kwargs.update(seed=args.seed, steps=args.steps)
    if args.suite == "flow":
        kwargs.update(seed=args.seed, steps=args.steps, paths=args.paths)
    ok, reports = run_suite(args.suite, **kwargs)
    payload = {"suite": args.suite, "pass": ok, "cases": reports}
    if not args.deterministic:
        payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    if args.json:
        _emit(args, json.dumps(payload, indent=2))
    else:
        lines = [
            f"[{'PASS' if r['pass'] else 'FAIL'}] {r['test']} "
            f"(err {r['max_abs_err']:.3g}, tol {r['tolerance']:.3g})"
            for r in reports
        ]
        lines.append(f"suite {args.suite}: {'PASS' if ok else 'FAIL'} (seed {args.seed})")
        _emit(args, "\n".join(lines))
    return 0 if ok else 1


def _parse_driver(spec: str) -> DriverSpec:
    kind, _, param = spec.partition(":")
    kind = kind.strip().lower()
    value = float(param) if param else None
    if kind == "brownian":
        return DriverSpec.brownian(1.0 if value is None else value)
    if kind == "poisson":
        return DriverSpec.poisson(1.0 if value is None else value)
    if kind in ("drift", "linear_drift"):
        return DriverSpec.linear_drift(1.0 if value is None else value)
    raise ValueError(f"unknown driver {kind!r}; use brownian, poisson or drift")


def cmd_simulate(args) -> int:
    specs = {
        i + 1: _parse_driver(s)
        for i, s in enumerate(args.drivers.split(","))
    }
    grid = make_grid(args.horizon, args.steps)
    bundle = simulate_bundle(specs, grid, seed=args.seed, path_index=args.path_index)
    if args.out:
        write_bundle(args.out, bundle, binary=args.binary or None)
        return 0
    _emit(args, bundle_to_csv(bundle))
    return 0


def _parse_matrix(text: str, dim: int) -> np.ndarray:
    rows = [r for r in text.split(";") if r.strip()]
    mat = np.array([[float(v) for v in r.split(",")] for r in rows])
    if mat.shape != (dim, dim):
        raise ValueError(f"matrix {text!r} is not {dim}x{dim}")
    return mat


def cmd_flow_compare(args) -> int:
    dim = args.dim
    drift = _parse_matrix(args.drift, dim) if args.drift else _default_drift(dim)
    diffusion = (
        _parse_matrix(args.diffusion, dim) if args.diffusion else _default_diffusion(dim)
    )
    problem = FlowProblem(
        dim=dim, drift=drift, diffusion=diffusion, horizon=args.horizon, steps=args.steps
    )
    orders = [int(k) for k in args.orders.split(",")]
    report = compare_flows(problem, orders, args.paths, args.seed)
    if not args.deterministic:
        report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    if args.json:
        _emit(args, json.dumps(report, indent=2))
    else:
        lines = [
            f"dim {dim}, T {args.horizon}, steps {args.steps}, paths {args.paths}, seed {args.seed}"
        ]
        for k in report["orders"]:
            lines.append(
                f"order {k}: strong error {report['mean_strong_error_log'][str(k)]:.6g}, "
                f"log-vs-taylor gap {report['mean_gap_log_vs_taylor'][str(k)]:.6g}"
            )
        _emit(args, "\n".join(lines))
    errs = [report["mean_strong_error_log"][str(k)] for k in report["orders"]]
    return 0 if all(a > b for a, b in zip(errs, errs[1:])) else 1


def _default_drift(dim: int) -> np.ndarray:
    m = np.zeros((dim, dim))
    for i in range(dim - 1):
        m[i, i + 1] = 1.0
    return m


def _default_diffusion(dim: int) -> np.ndarray:
    m = np.zeros((dim, dim))
    for i in range(dim):
        m[i, i] = 0.5 * (-1.0) ** i
    for i in range(1, dim):
        m[i, i - 1] = 1.0
    return m


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="itoflow",
        description="Exact quasi-shuffle and surjection algebra for logs of Ito flows",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("qsh", help="quasi-shuffle product of word literals")
    p.add_argument("words", nargs="+", help="word literals like 1.2 or [1,3].2")
    _common_flags(p)
    p.set_defaults(fn=cmd_qsh)

    p = sub.add_parser("surj-log", help="log of the identity series of surjections")
    p.add_argument("--grade", type=int, default=4)
    p.add_argument("--form", choices=("closed", "series", "subset"), default="closed")
    p.add_argument("--strichartz", action="store_true", help="bijection part only")
    _common_flags(p)
    p.set_defaults(fn=cmd_surj_log)

    p = sub.add_parser("logflow", help="flow-map log templates (or matrix form)")
    p.add_argument("--order", type=int, default=3)
    p.add_argument("--drivers", type=int, default=2, help="number of primary drivers")
    p.add_argument(
        "--continuous",
        action="store_true",
        help="restrict to continuous drivers (drops deep-bracket terms)",
    )
    p.add_argument("--matrix", type=int, metavar="DIM", help="emit the matrix log instead")
    _common_flags(p)
    p.set_defaults(fn=cmd_logflow)

    p = sub.add_parser("matrix-log", help="entry-wise log of a linear matrix flow")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--order", type=int, default=3)
    p.add_argument("--taylor", action="store_true", help="emit the flow series instead")
    _common_flags(p)
    p.set_defaults(fn=cmd_matrix_log)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=("algebra", "theorem", "pathwise", "flow"))
    p.add_argument("--grade", type=int, default=4)
    p.add_argument("--steps", type=int, default=4096)
    p.add_argument("--paths", type=int, default=128)
    _common_flags(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("simulate", help="simulate a driver bundle to CSV or binary")
    p.add_argument(
        "--drivers",
        default="brownian:1.0",
        help="comma list like brownian:1.0,poisson:2.0,drift:1.0 (letters 1..n)",
    )
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=1024)
    p.add_argument("--path-index", type=int, default=0)
    p.add_argument("--binary", action="store_true", help="force the binary format")
    _common_flags(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("flow-compare", help="strong-error study of the flow routes")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--orders", default="1,2,3")
    p.add_argument("--horizon", type=float, default=0.1)
    p.add_argument("--steps", type=int, default=16384)
    p.add_argument("--paths", type=int, default=1000)
    p.add_argument("--drift", help="matrix as rows 'a,b;c,d'")
    p.add_argument("--diffusion", help="matrix as rows 'a,b;c,d'")
    _common_flags(p)
    p.set_defaults(fn=cmd_flow_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    weight_cap, grade_cap = _config.weight_cap(), _config.grade_cap()
    try:
        _apply_caps(args)
        return args.fn(args)
    except ValueError as exc:  # CapExceeded and WordParseError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        # --max-grade holds for this invocation only
        _config.set_weight_cap(weight_cap)
        _config.set_grade_cap(grade_cap)


if __name__ == "__main__":
    sys.exit(main())
