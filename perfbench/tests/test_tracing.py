"""Self-test of the benchmark's span recorders.

    python3 -m pytest perfbench/tests -q

The traced counts are pinned for small deterministic cases; they must
repeat exactly from run to run, and every rebound name must be restored.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from itoflow import flows, logseries, matrixseries, quasishuffle, surjections  # noqa: E402
from tracing import Tracer, installed_spans  # noqa: E402


# observed on the seed code; a change to any of them is a change of the work
QSH_CALLS, QSH_TRIED, QSH_KEPT, QSH_TERMS = 20, 18696, 284, 482
DIAMOND_TRIED, DIAMOND_KEPT, DIAMOND_TERMS = 488, 38, 196
WORD_PATHS, WORD_BLOCKS, WORD_PREFIXES, WORD_BYTES = 40, 83, 12, 610144


def traced(fn) -> Tracer:
    tracer = Tracer()
    tracer.install()
    try:
        fn()
    finally:
        tracer.uninstall()
    return tracer


def counts(tracer: Tracer) -> dict:
    return {k: v for k, (v, unit) in tracer.metrics().items() if unit != "s"}


def exp_log():
    log = matrixseries.matrix_log(2, 3)
    assert matrixseries.matrix_exp(log, 3) == matrixseries.matrix_ito_taylor(2, 3)


def log_series():
    assert logseries.log_identity_series(4) == logseries.log_identity_closed_form(4)


def tiny_flow():
    problem = flows.FlowProblem(
        dim=2,
        drift=np.array([[0.0, 1.0], [0.0, 0.0]]),
        diffusion=np.array([[0.5, 0.0], [1.0, -0.5]]),
        horizon=0.1,
        steps=64,
    )
    flows.compare_flows(problem, orders=(1, 2), n_paths=4, seed=3, batch_size=4)


def test_exp_log_counts_are_pinned():
    tracer = traced(exp_log)
    m = counts(tracer)
    assert m["matrixseries.matrix_log.calls"] == 1
    assert m["matrixseries.matrix_exp.calls"] == 1
    assert m["matrixseries.matmul.calls"] == 3
    assert m["quasishuffle.qsh.calls"] == QSH_CALLS
    assert m["quasishuffle.qsh.pairs_tried"] == QSH_TRIED
    assert m["quasishuffle.qsh.pairs_kept"] == QSH_KEPT
    assert m["quasishuffle.qsh.terms_out"] == QSH_TERMS
    # each kept pair costs exactly one kernel call, each pruned pair none
    assert tracer.spans["kernels.qsh_words"][0] == QSH_KEPT
    assert m["surjections.diamond.calls"] == 0


def test_diamond_counts_are_pinned():
    tracer = traced(log_series)
    m = counts(tracer)
    assert m["surjections.diamond.calls"] == 4
    assert m["surjections.diamond.pairs_tried"] == DIAMOND_TRIED
    assert m["surjections.diamond.pairs_kept"] == DIAMOND_KEPT
    assert m["surjections.diamond.terms_out"] == DIAMOND_TERMS
    assert tracer.spans["kernels.diamond_words"][0] == DIAMOND_KEPT


def test_word_path_counts_are_pinned():
    m = counts(traced(tiny_flow))
    assert m["flows.compare_flows.calls"] == 1
    assert m["flows.flow_reference.calls"] == 1
    assert m["flows.truncated_expm.calls"] == 2
    assert m["evaluate.word_path.calls"] == WORD_PATHS
    assert m["evaluate.word_path.blocks"] == WORD_BLOCKS
    assert m["evaluate.word_path.distinct_prefixes"] == WORD_PREFIXES
    assert m["evaluate.word_path.bytes_computed"] == WORD_BYTES


@pytest.mark.parametrize("case", [exp_log, log_series, tiny_flow])
def test_counts_repeat_exactly(case):
    assert counts(traced(case)) == counts(traced(case))


def test_recorders_are_removed():
    originals = (matrixseries.qsh, surjections.diamond_words, matrixseries.MatrixExpansion.matmul)
    tracer = Tracer()
    tracer.install()
    assert matrixseries.qsh is not originals[0]
    assert installed_spans()
    tracer.uninstall()
    assert installed_spans() == []
    assert matrixseries.qsh is quasishuffle.qsh is originals[0]
    assert surjections.diamond_words is originals[1]
    assert matrixseries.MatrixExpansion.matmul is originals[2]


def test_self_time_excludes_children_and_hooks():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def slow_hook(args, kwargs):
        now[0] += 100.0  # tracing cost: charged to no span

    def inner():
        now[0] += 3.0

    inner = tracer.wrap("inner", inner, before=slow_hook)

    def outer():
        now[0] += 1.0
        inner()
        now[0] += 2.0

    outer = tracer.wrap("outer", outer)
    outer()
    assert tracer.spans == {"inner": [1, 3.0], "outer": [1, 3.0]}


def test_failing_call_is_recorded_and_unwound():
    tracer = Tracer()

    def boom():
        raise ValueError("boom")

    boom = tracer.wrap("boom", boom)
    with pytest.raises(ValueError):
        boom()
    assert tracer.spans["boom"][0] == 1
    assert tracer._stack == []
