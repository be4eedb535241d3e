"""itoflow benchmark: one workload, end to end or layer by layer.

    python3 perfbench/run.py --workload {symbolic,flow,identities} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  The library is imported from ./src; nothing
is built.  Every workload runs in fresh single-threaded worker processes
(worker.py), one at a time, each pinned to one CPU.  Workloads, metrics and predictions are
described in WORKLOADS.md.

--trace 0 prints the end-to-end metrics.  PROCESSES workers each set up;
the first timed_processes of them (a workload attribute) then share the
closed loop's --seconds.  Times are scaled to reference host speed
(hostspeed.py); the wall times are printed beside them.  set-up time is the
median over all workers, peak memory the median over the timing ones.
--trace 1 prints the per-layer metrics of a fixed op count, run once under
span recorders and once without, so the tracing overhead is measured.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  Any failure of the
benchmark itself exits non-zero without printing that line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "itoflow"
PROCESSES = 3
BUDGET_S = 170.0  # the whole run, all worker processes included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def run_worker(args, mode: str, deadline: float, slot: int = 0) -> dict:
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed), mode]
    cmd += ["--seconds", str(args.seconds), "--slot", str(slot)]
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker exceeded the {BUDGET_S:.0f} s budget") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except ValueError:
        raise BenchError(f"{mode} worker printed no result: {lines[-1][:200]!r}") from None


def environment(worker: dict) -> dict:
    """What must match before two results may be compared."""
    sha = None
    try:
        git = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.split()
    except (OSError, subprocess.TimeoutExpired):
        git = []
    if len(git) == 2 and Path(git[0]).resolve() == ROOT:  # not an enclosing repository
        sha = git[1]
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": worker["python"],
        "numpy": worker["numpy"],
        "backend": worker["backend"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def end_to_end(args, deadline: float):
    # a timed loop split over processes lets no one process's memory layout
    # decide the result; every worker sets up, so set-up time is a median
    workers = [run_worker(args, "run", deadline, slot) for slot in range(PROCESSES)]
    timing = [w for w in workers if w["latencies_s"]]
    lat = sorted(x for w in timing for x in w["latencies_s"])
    wall = sorted(x for w in timing for x in w["wall_latencies_s"])
    n = len(lat)
    metrics = {
        "setup_s": (statistics.median(w["setup_s"] for w in workers), "s"),
        "ops_per_s": (n / sum(lat), "1/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "peak_rss_mb": (statistics.median(w["peak_rss_mb"] for w in timing), "MB"),
    }
    notes = [
        f"ops timed: {n} in {sum(wall):.3f} s of wall time over {len(timing)} of {PROCESSES} processes",
        "host speed: median sample {:.6g} s per worker against {:.6g} s at reference speed".format(
            statistics.median(w["sample_p50_s"] for w in workers), REFERENCE_S
        ),
        "wall time, unscaled: setup_s {:.6g} s  ops_per_s {:.6g} 1/s  op_p50_s {:.6g} s".format(
            statistics.median(w["setup_wall_s"] for w in workers), n / sum(wall), statistics.median(wall)
        ),
    ]
    if n >= 11:
        # the highest percentile with at least ten ops beyond it
        notes.append(f"op_tail_s {lat[n - 11]:.6g} s  (p{100 * (n - 10) / n:.2f} of {n} ops)")
    else:
        notes.append(f"op_tail_s omitted: {n} ops leave fewer than ten beyond any percentile")
    return metrics, notes, workers


def per_layer(args, deadline: float):
    untraced = run_worker(args, "fixed", deadline)
    traced = run_worker(args, "traced", deadline)
    metrics = {name: tuple(v) for name, v in traced["layers"].items()}
    metrics["trace.overhead_s"] = (traced["wall_s"] - untraced["wall_s"], "s")
    metrics["trace.self_sum_s"] = (traced["self_sum_s"], "s")
    metrics["trace.untraced_wall_s"] = (untraced["wall_s"], "s")
    metrics["trace.traced_wall_s"] = (traced["wall_s"], "s")
    # spans that ran, largest self time first; the kernel total is left out
    # because its three named kernels are listed
    selfs = sorted(
        (
            (v, k)
            for k, (v, unit) in traced["layers"].items()
            if k.endswith("self_s") and v and k != "kernels.self_s"
        ),
        reverse=True,
    )
    notes = [f"{k:<40} {v:10.4f} s" for v, k in selfs]
    notes.append(f"{'sum of all span self times':<40} {traced['self_sum_s']:10.4f} s")
    notes.append(f"{'traced wall time':<40} {traced['wall_s']:10.4f} s")
    notes.append(f"{'untraced wall time':<40} {untraced['wall_s']:10.4f} s")
    return metrics, notes, [untraced, traced]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "__init__.py").is_file():
        print(f"benchmark: no library source at {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, notes, workers = measure(args, deadline)
        env = environment(workers[-1])
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    print(json.dumps({"run": record, "environment": env}))
    for note in notes:
        print(note)
    print(f"error_rate {failed / attempted:.6g}  ({failed} failed of {attempted} ops)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
