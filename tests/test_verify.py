"""Verification suites: report schema and pass status."""

import json

import pytest

from itoflow import SUITES, run_suite
from itoflow.cli import main

SCHEMA = {"test", "max_abs_err", "tolerance", "pass", "seed", "grid_points", "paths"}


def test_suite_registry():
    assert set(SUITES) == {"algebra", "theorem", "pathwise", "flow"}


def test_unknown_suite_raises():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nonsense")


@pytest.mark.parametrize("name,kwargs", [
    ("algebra", {"grade": 3, "seed": 1}),
    ("theorem", {"grade": 3}),
    ("pathwise", {"seed": 11, "steps": 512}),
    ("flow", {"seed": 7, "steps": 256, "paths": 16}),
])
def test_suites_pass_with_schema(name, kwargs):
    ok, reports = run_suite(name, **kwargs)
    assert ok is True
    assert reports
    for r in reports:
        assert set(r) == SCHEMA
        assert r["pass"] is True
        assert r["max_abs_err"] <= r["tolerance"] or (
            r["max_abs_err"] == 0 and r["tolerance"] == 0
        )


def _cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


ALGEBRA_TEXT = """\
[PASS] qsh commutative (sampled) (err 0, tol 0)
[PASS] qsh associative (sampled) (err 0, tol 0)
[PASS] empty word is the unit (err 0, tol 0)
[PASS] recursive qsh == surjection-sum qsh (err 0, tol 0)
[PASS] diamond associative (sampled) (err 0, tol 0)
[PASS] diamond == brute-force filter (err 0, tol 0)
[PASS] descent-set inclusion-exclusion, n <= 5 (err 0, tol 0)
suite algebra: PASS (seed 0)
"""

THEOREM_TEXT = """\
[PASS] power series log == closed form, grade 4 (err 0, tol 0)
[PASS] subset form == closed form, grade 4 (err 0, tol 0)
[PASS] exp(log) == identity series, grade 4 (err 0, tol 0)
[PASS] alternating subset sum identity, n <= 8 (err 0, tol 0)
[PASS] composition embedding is multiplicative (err 0, tol 0)
suite theorem: PASS (seed 0)
"""

PATHWISE_CASES = [
    ("discrete product rule", 1e-09),
    ("bracket symmetry and associativity", 1e-12),
    ("pathwise quasi-shuffle identity (sampled)", 1e-09),
    ("one-letter times two-letter product", 1e-09),
    ("triple self-bracket of a unit-jump path", 0.0),
]

FLOW_CASES = [  # --steps 256 --paths 16; the tolerances are simulated
    ("strong error decreases with order", 0.0),
    ("exp(log_1) matches taylor_1 up to truncation", 0.2539507243515319),
    ("exp(log_2) matches taylor_2 up to truncation", 0.030709051253884324),
    ("exp(log_3) matches taylor_3 up to truncation", 0.001635923532892851),
]


@pytest.mark.parametrize(
    "suite, text", [("algebra", ALGEBRA_TEXT), ("theorem", THEOREM_TEXT)], ids=["algebra", "theorem"]
)
def test_exact_suite_text_is_pinned(capsys, suite, text):
    assert _cli(capsys, "verify", suite, "--deterministic") == (0, text)


@pytest.mark.parametrize(
    "argv, grid_points, paths, pinned",
    [
        (("pathwise",), 4097, 1, PATHWISE_CASES),
        (("flow", "--steps", "256", "--paths", "16"), 257, 16, FLOW_CASES),
    ],
    ids=["pathwise", "flow"],
)
def test_numeric_suite_cases_are_pinned(capsys, argv, grid_points, paths, pinned):
    """Everything but the round-off residuals, which vary by platform."""
    code, out = _cli(capsys, "verify", *argv, "--json", "--deterministic")
    assert code == 0
    cases = json.loads(out)["cases"]
    for case in cases:
        del case["max_abs_err"]
    assert cases == [
        {
            "test": name,
            "tolerance": pytest.approx(tol, rel=1e-9),
            "pass": True,
            "seed": 0,
            "grid_points": grid_points,
            "paths": paths,
        }
        for name, tol in pinned
    ]


@pytest.mark.parametrize("name", ["algebra", "theorem", "pathwise"])
def test_python_defaults_are_the_cli_defaults(capsys, name):
    code, out = _cli(capsys, "verify", name, "--json", "--deterministic")
    ok, reports = run_suite(name)
    assert (code, ok) == (0, True)
    assert json.loads(out)["cases"] == reports
