"""Run one workload in this fresh process and print one JSON line.

Started by run.py, never imported: the set-up clock starts before itoflow
is imported, and every process holds one workload's caches and memory.

Modes:
  run     import, make inputs, one untimed warm-up op, then a closed loop
          of ops; worker --slot k of a run times ops only if k is below the
          workload's timed_processes, for --seconds / timed_processes.
          Host speed is sampled throughout (hostspeed.py), and set-up and
          op times are reported both as wall times and scaled to reference
          speed
  fixed   make inputs and run the workload's fixed traced op count
  traced  the same as fixed, under span recorders
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("mode", choices=("run", "fixed", "traced"))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--slot", type=int, default=0)
    args = parser.parse_args()
    # one fixed CPU: on a 2-vCPU virtual machine, an unpinned worker's op
    # times varied by up to 30%, against under 10% when pinned
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    sys.path.insert(0, str(SRC))
    import itoflow

    if SRC not in Path(itoflow.__file__).resolve().parents:
        raise SystemExit(f"itoflow imported from {itoflow.__file__}, not from {SRC}")
    import numpy

    from hostspeed import HostSpeed
    from tracing import Tracer, installed_spans
    from workloads import WORKLOADS

    workload_cls = WORKLOADS[args.workload]
    caps = (itoflow.weight_cap(), itoflow.grade_cap())
    counts = {"attempted": 0, "failed": 0}

    def run_op(workload, i: int) -> None:
        counts["attempted"] += 1
        try:
            ok = workload.op(i)
        except Exception:  # a raised exception is a failed op, not a crash
            traceback.print_exc()
            ok = False
        counts["failed"] += not ok

    if installed_spans():
        raise SystemExit("span recorders installed before the run")
    out = {}
    if args.mode in ("fixed", "traced"):
        tracer = Tracer() if args.mode == "traced" else None
        gc.collect()
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        try:
            workload = workload_cls(args.seed)
            for i in range(workload_cls.traced_ops):
                run_op(workload, i)
        finally:
            out["wall_s"] = time.perf_counter() - t0
            if tracer:
                tracer.uninstall()
        if tracer:
            out["layers"] = tracer.metrics()
            out["self_sum_s"] = tracer.self_sum()
    else:
        speed = HostSpeed(workload_cls.speed_exponent)
        base = args.slot * 100_000  # op indices, and so flow seeds, differ between workers
        spans = []
        speed.start()
        try:
            workload = workload_cls(args.seed)
            run_op(workload, base)  # warm-up
            gc.collect()  # garbage of set-up is not charged to the timed ops; gc stays on
            start = time.perf_counter()
            share = workload_cls.timed_processes
            seconds = args.seconds / share if args.slot < share else 0.0
            now, deadline, i = start, start + seconds, base + 1
            while now < deadline:
                run_op(workload, i)
                later = time.perf_counter()
                spans.append((now, later))
                now, i = later, i + 1
            # samples after the last interval, so that it, and a short
            # set-up, has a full window of them on both sides; a busy wait,
            # because samples taken on an idle CPU read slow
            end = time.perf_counter() + speed.window
            while time.perf_counter() < end:
                pass
        finally:
            speed.stop()
        out["setup_s"] = speed.scaled(T_START, start)
        out["setup_wall_s"] = start - T_START
        out["latencies_s"] = [speed.scaled(a, b) for a, b in spans]
        out["wall_latencies_s"] = [b - a for a, b in spans]
        out["sample_p50_s"] = statistics.median(speed.durations)

    if installed_spans():
        raise SystemExit(f"span recorders left installed: {installed_spans()}")
    if (itoflow.weight_cap(), itoflow.grade_cap()) != caps:
        raise SystemExit("the size caps changed during the run")
    out.update(
        counts,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        backend=itoflow.BACKEND,
        numpy=numpy.__version__,
        python=platform.python_version(),
    )
    print(json.dumps(out))


if __name__ == "__main__":
    main()
