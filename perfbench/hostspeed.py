"""Host speed, sampled during a timed run, and times scaled to a fixed speed.

On a shared virtual machine the speed at which the interpreter runs can
change by a factor of 1.6 within seconds, and back, with no steal time
recorded and with process CPU time moving in step with wall time.  A wall
time then says as much about the host as about the program.  ``HostSpeed``
runs a fixed pure-Python reference kernel, which uses no library code,
from a ``SIGALRM`` handler every ``period`` seconds, and records when each
sample started and how long it took.  ``scaled`` turns a wall interval
into seconds at reference speed: the interval, less the sampling time
inside it, times (``REFERENCE_S`` / the median sample duration around it)
raised to the workload's ``exponent``.

The exponent is the share of a workload's time that speeds up and slows
down with the kernel.  Interpreted work on data that stays in cache moves
with it one for one (exponent 1); time spent waiting on memory moves less.
Each workload's exponent was measured on the host described in
WORKLOADS.md.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left, bisect_right
from math import gcd


def reference_kernel() -> int:
    """A fixed piece of interpreter-bound work: ints, tuples, dicts, a sort."""
    table: dict[tuple[int, int], int] = {}
    total = 0
    for i in range(1, 700):
        key = (i % 13, i % 7)
        table[key] = table.get(key, 0) + i
        total += gcd(i * 7919, 1000003 % i + 1)
    return total + len(sorted(table.items()))


# Duration of one sample on a host of reference speed: about the median on
# a 2-vCPU Intel Xeon virtual machine under Python 3.11.
REFERENCE_S = 0.0005


class HostSpeed:
    """Samples the reference kernel's duration from a periodic signal."""

    def __init__(self, exponent: float = 1.0, period: float = 0.05, window: float = 0.5):
        self.exponent = exponent
        self.period = period
        self.window = window  # seconds of samples taken on each side of an interval
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        self.add(t0, time.perf_counter() - t0)

    def add(self, start: float, duration: float) -> None:
        self.starts.append(start)
        self.durations.append(duration)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds at reference speed that the wall interval [t0, t1] took.

        A handler runs between two bytecodes of the interrupted code, so a
        sample that starts inside the interval also ends inside it, and its
        time is taken out.  The speed is the median sample duration within
        ``window`` seconds of the interval, or of the five samples nearest
        to it when fewer fall there.
        """
        if len(self.starts) < 5:
            raise RuntimeError(f"only {len(self.starts)} host speed samples were taken")
        inside = sum(self.durations[bisect_left(self.starts, t0) : bisect_right(self.starts, t1)])
        lo = bisect_left(self.starts, t0 - self.window)
        hi = bisect_right(self.starts, t1 + self.window)
        if hi - lo < 5:
            middle = bisect_left(self.starts, (t0 + t1) / 2)
            lo = min(max(0, middle - 2), len(self.starts) - 5)
            hi = lo + 5
        speed = statistics.median(self.durations[lo:hi])
        return (t1 - t0 - inside) * (REFERENCE_S / speed) ** self.exponent
