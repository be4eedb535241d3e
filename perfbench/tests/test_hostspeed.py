"""Self-test of the host speed scaling.

    python3 -m pytest perfbench/tests -q
"""

import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import pytest  # noqa: E402
from hostspeed import REFERENCE_S, HostSpeed  # noqa: E402


def synthetic(durations, exponent: float = 1.0, every: float = 0.1) -> HostSpeed:
    speed = HostSpeed(exponent, window=0.25)
    for n, d in enumerate(durations):
        speed.add(n * every, d)
    return speed


@pytest.mark.parametrize("exponent", [0.5, 1.0])
def test_reference_speed_leaves_time_unchanged(exponent):
    speed = synthetic([REFERENCE_S] * 50, exponent)
    # the ten samples at 1.1, 1.2, ..., 2.0 fall inside and are taken out
    assert speed.scaled(1.05, 2.05) == pytest.approx(1.0 - 10 * REFERENCE_S)


@pytest.mark.parametrize("exponent", [0.5, 1.0])
def test_slow_host_scales_down_and_uses_the_nearby_samples(exponent):
    ref = REFERENCE_S
    speed = synthetic([ref] * 20 + [2 * ref] * 20 + [ref] * 20, exponent)
    # [2.55, 3.55] and its 0.25 s margins hold only the doubled samples
    assert speed.scaled(2.55, 3.55) == pytest.approx((1.0 - 10 * 2 * ref) / 2**exponent)
    assert speed.scaled(0.55, 1.55) == pytest.approx(1.0 - 10 * ref)


def test_short_interval_uses_the_five_nearest_samples():
    speed = HostSpeed(window=0.0)
    for n, d in enumerate([1e-3, 1e-3, 2e-3, 2e-3, 2e-3, 2e-3, 2e-3, 1e-3, 1e-3]):
        speed.add(float(n), d)
    # no sample within the interval or its (empty) margins
    assert speed.scaled(4.2, 4.4) == pytest.approx(0.2 * REFERENCE_S / 2e-3)


def test_too_few_samples_is_an_error():
    speed = synthetic([1e-3] * 4)
    with pytest.raises(RuntimeError):
        speed.scaled(0.0, 0.3)


def test_sampling_runs_during_work_and_stops():
    speed = HostSpeed(period=0.01)
    speed.start()
    try:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    finally:
        speed.stop()
    taken = len(speed.starts)
    assert taken >= 10
    assert signal.getsignal(signal.SIGALRM) in (signal.SIG_DFL, None)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    time.sleep(0.05)
    assert len(speed.starts) == taken
