"""Scoped size caps: itoflow.caps holds for one block, in one context; and
every size argument is an int of at least its least value."""

import contextvars
import re
import threading
from functools import partial

import pytest

from itoflow import (
    CapExceeded,
    DriverAlphabet,
    Expansion,
    MatrixExpansion,
    SurjElement,
    caps,
    compare_flows,
    compositions_of,
    entry_letter,
    enumerate_grade,
    enumerate_surjections,
    exp_element,
    grade_cap,
    identity_series,
    log_flow_terms,
    log_identity_closed_form,
    log_identity_series,
    log_identity_subset_form,
    matrix_exp,
    matrix_ito_taylor,
    matrix_log,
    strichartz_restriction,
    subset_alternating_sum,
    weight_cap,
)
from itoflow._config import DEFAULT_GRADE_CAP, DEFAULT_WEIGHT_CAP
from itoflow.cli import _call_caps, main
from itoflow.verify import flow_problem, suite_algebra


def current():
    return weight_cap(), grade_cap()


def test_none_keeps_the_current_value():
    with caps(weight=5, grade=3):
        with caps(grade=4):
            assert current() == (5, 4)
        with caps(weight=7):
            assert current() == (7, 3)
        with caps():
            assert current() == (5, 3)


def test_nested_blocks_restore_the_outer_values():
    outer = current()
    with caps(weight=10, grade=5):
        with caps(weight=3, grade=2):
            with caps(weight=4):
                assert current() == (4, 2)
            assert current() == (3, 2)
        assert current() == (10, 5)
    assert current() == outer


def test_caps_come_back_after_cap_exceeded():
    outer = current()
    with pytest.raises(CapExceeded, match=r"itoflow\.caps\(grade=\.\.\.\)"):
        with caps(grade=2):
            log_identity_closed_form(3)
    assert current() == outer


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(weight=0),
        dict(grade=True),
        dict(weight=2.5),
        dict(grade=-1),
        dict(weight="8"),
    ],
)
def test_bad_values_are_value_errors_before_the_block(kwargs):
    outer = current()
    ((name, value),) = kwargs.items()
    message = rf"^{name} cap must be (an int|>= 1), not {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        caps(**kwargs)
    with pytest.raises(ValueError, match=message):
        with caps(**kwargs):
            pytest.fail("the block must not run")
    assert current() == outer


def test_a_thread_started_inside_a_block_does_not_see_it():
    seen = []
    inside, release = threading.Event(), threading.Event()

    def worker():
        seen.append(current())
        with caps(weight=5, grade=3):
            inside.set()
            release.wait(timeout=10)

    with caps(weight=20, grade=10):
        thread = threading.Thread(target=worker)
        thread.start()
        assert inside.wait(timeout=10)
        while_thread_holds_its_own = current()
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert seen == [(DEFAULT_WEIGHT_CAP, DEFAULT_GRADE_CAP)]
    assert while_thread_holds_its_own == (20, 10)


def test_a_context_copied_before_a_block_does_not_see_it():
    outer = current()
    before = contextvars.copy_context()

    def raise_inside():
        with caps(weight=7):
            return current()

    with caps(weight=5, grade=3):
        assert before.run(current) == outer
        # a block run in the copy stays in the copy
        assert before.run(raise_inside) == (7, outer[1])
        assert current() == (5, 3)
    assert before.run(current) == outer


def test_cli_max_grade_below_one_exits_2(capsys):
    outer = current()
    assert main(["surj-log", "--grade", "1", "--max-grade", "0"]) == 2
    assert "--max-grade must be >= 1" in capsys.readouterr().err
    assert current() == outer


# every size argument checked by _config._count: a call taking the value,
# the argument's name, and the least value it accepts
COUNT_SITES = {
    "identity_series": (identity_series, "max_grade", 1),
    "log_identity_series": (log_identity_series, "max_grade", 1),
    "log_identity_closed_form": (log_identity_closed_form, "max_grade", 1),
    "log_identity_subset_form": (log_identity_subset_form, "max_grade", 1),
    "strichartz_restriction": (strichartz_restriction, "max_grade", 1),
    "exp_element": (lambda v: exp_element(SurjElement.zero(), v), "max_grade", 1),
    "matrix_ito_taylor-order": (lambda v: matrix_ito_taylor(2, v), "order", 0),
    "matrix_log-order": (lambda v: matrix_log(2, v), "order", 1),
    "matrix_exp-order": (lambda v: matrix_exp(matrix_log(2, 2), v), "order", 0),
    "log_flow_terms-order": (lambda v: log_flow_terms(DriverAlphabet(2), v), "order", 1),
    "enumerate_surjections-n": (lambda v: enumerate_surjections(v, 1), "n", 0),
    "enumerate_surjections-k": (lambda v: enumerate_surjections(3, v), "k", 0),
    "enumerate_surjections-max_fiber": (
        lambda v: enumerate_surjections(3, 2, v), "max_fiber", 0
    ),
    "enumerate_grade-n": (enumerate_grade, "n", 0),
    "enumerate_grade-max_fiber": (lambda v: enumerate_grade(3, v), "max_fiber", 0),
    "compositions_of": (compositions_of, "n", 0),
    "entry_letter-i": (lambda v: entry_letter(v, 1, 2), "i", 1),
    "entry_letter-j": (lambda v: entry_letter(1, v, 2), "j", 1),
    "entry_letter-dim": (lambda v: entry_letter(1, 1, v), "dim", 1),
    "subset_alternating_sum": (lambda v: subset_alternating_sum(v, []), "n", 1),
    "suite_algebra": (suite_algebra, "grade", 1),
    "cli-max-grade": (_call_caps, "--max-grade", 1),
}
# the call with a bad value, and the anchored message that names it
COUNT_ROWS = [
    (partial(call, bad), f"^{re.escape(f'{name} must be {rule}, not {bad}')}$")
    for call, name, least in COUNT_SITES.values()
    for bad, rule in [(True, "an int"), (2.5, "an int"), (least - 1, f">= {least}")]
]
COUNT_IDS = [f"{site}-{kind}" for site in COUNT_SITES for kind in ("bool", "float", "below")]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: matrix_log(True, 2), "dim must be an int, not True"),
        (lambda: MatrixExpansion(2.5, [[Expansion.unit()]]), "dim must be an int, not 2.5"),
        (lambda: MatrixExpansion(0, []), "dim must be >= 1, not 0"),
        (lambda: DriverAlphabet(2.5), "n_primary must be an int, not 2.5"),
        (lambda: DriverAlphabet(True), "n_primary must be an int, not True"),
        (lambda: DriverAlphabet(0), "n_primary must be >= 1, not 0"),
        (lambda: compare_flows(flow_problem(8), [1.5], 2, 0), "order must be an int, not 1.5"),
        (lambda: compare_flows(flow_problem(8), [0, 1], 2, 0), "order must be >= 1, not 0"),
        (lambda: compare_flows(flow_problem(8), [], 2, 0), "need at least one order"),
    ]
    + COUNT_ROWS,
    ids=[
        "matrix_log-dim-bool", "MatrixExpansion-dim-float", "MatrixExpansion-dim-zero",
        "DriverAlphabet-float", "DriverAlphabet-bool", "DriverAlphabet-zero",
        "compare_flows-order-float", "compare_flows-order-zero", "compare_flows-no-order",
    ]
    + COUNT_IDS,
)
def test_sizes_are_counts(call, message):
    with pytest.raises(ValueError, match=message):
        call()
