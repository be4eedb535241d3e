"""Command-line interface: output forms, files, exit codes."""

import argparse
import json
import re
import resource
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from itoflow import (
    DriverSpec,
    Expansion,
    SurjElement,
    caps,
    compare_flows,
    grade_cap,
    log_identity_closed_form,
    read_bundle,
    strichartz_restriction,
    weight_cap,
)
from itoflow.cli import _emit_report, _parse_driver, _parse_matrix, build_parser, main
from itoflow.verify import flow_problem


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out = capsys.readouterr() if capsys else None
    return code, out


OUTPUT = ["--json", "--out", "--max-grade"]
REPORT = OUTPUT + ["--seed", "--deterministic"]
OPTIONS = {
    "qsh": OUTPUT,
    "surj-log": ["--grade", "--form"] + OUTPUT,
    "logflow": ["--order", "--continuous"] + OUTPUT,
    "matrix-log": ["--dim", "--order", "--taylor"] + OUTPUT,
    "verify": ["--grade", "--steps", "--paths"] + REPORT,
    "simulate": ["--drivers", "--horizon", "--steps", "--path-index", "--out", "--seed"],
    "flow-compare": [
        "--dim", "--orders", "--horizon", "--steps", "--paths", "--drift", "--diffusion",
    ] + REPORT,
}


def test_each_subcommand_declares_the_flags_it_reads():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    declared = {
        name: [o for a in p._actions for o in a.option_strings if o not in ("-h", "--help")]
        for name, p in sub.choices.items()
    }
    assert declared == OPTIONS
    assert sum(map(len, declared.values())) == 45


@pytest.mark.parametrize(
    "argv",
    [
        ("qsh", "1", "--seed", "1"),
        ("matrix-log", "--deterministic"),
        ("simulate", "--json"),
        ("simulate", "--binary"),
        ("surj-log", "--strichartz"),
    ],
)
def test_a_flag_the_command_does_not_read_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(list(argv))
    assert exit_.value.code == 2
    flag = next(a for a in argv if a.startswith("--"))
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestQsh:
    def test_text_output(self, capsys):
        code, out = run_cli("qsh", "1.2", "3", capsys=capsys)
        assert code == 0
        assert out.out.strip() == "I_{1[23]} + I_{[13]2} + I_{123} + I_{132} + I_{312}"

    def test_json_output_parses_back(self, capsys):
        code, out = run_cli("qsh", "1", "1", "--json", capsys=capsys)
        assert code == 0
        e = Expansion.from_json_dict(json.loads(out.out))
        assert sum(c for _, c in e) == 3  # 2 (1)(1) + [11]

    def test_unit_literal(self, capsys):
        code, out = run_cli("qsh", "e", "2", capsys=capsys)
        assert code == 0
        assert out.out.strip() == "I_{2}"

    def test_unit_product_prints_its_coefficient(self, capsys):
        code, out = run_cli("qsh", "e", "e", capsys=capsys)
        assert code == 0
        assert out.out.strip() == "1"

    def test_empty_argument_is_unit(self, capsys):
        code, out = run_cli("qsh", "", "1", capsys=capsys)
        assert code == 0
        assert out.out.strip() == "I_{1}"

    def test_three_words_fold_to_thirteen_terms(self, capsys):
        code, out = run_cli("qsh", "1", "2", "3", capsys=capsys)
        assert code == 0
        assert out.out.count("+") == 12  # 13 terms, all with coefficient 1

    def test_bad_literal_exits_2(self, capsys):
        code, out = run_cli("qsh", "1..2", capsys=capsys)
        assert code == 2
        assert "error" in out.err

    def test_cap_exceeded_exits_2(self, capsys):
        with caps(weight=8):
            code, out = run_cli("qsh", "1.1.1.1.1", "1.1.1.1.1", capsys=capsys)
        assert code == 2
        assert "cap" in out.err

    def test_max_grade_flag_raises_cap(self, capsys):
        with caps(weight=8, grade=6):
            code, out = run_cli(
                "qsh", "1.1.1.1.1", "1.1.1.1.1", "--max-grade", "10", capsys=capsys
            )
        assert code == 0


class TestSurjLog:
    def test_forms_agree(self, capsys):
        outputs = []
        for form in ("closed", "series", "subset"):
            code, out = run_cli(
                "surj-log", "--grade", "3", "--form", form, "--json", capsys=capsys
            )
            assert code == 0
            outputs.append(SurjElement.from_json_dict(json.loads(out.out)))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_strichartz_form_is_the_bijection_part(self, capsys):
        code, out = run_cli(
            "surj-log", "--grade", "3", "--form", "strichartz", "--json", capsys=capsys
        )
        assert code == 0
        assert SurjElement.from_json_dict(json.loads(out.out)) == strichartz_restriction(3)

    def test_text_form(self, capsys):
        code, out = run_cli("surj-log", "--grade", "1", capsys=capsys)
        assert code == 0
        assert out.out.strip() == "(1)"

    def test_max_grade_lasts_one_call(self, capsys):
        with caps(weight=8, grade=6):
            assert run_cli("surj-log", "--grade", "2", "--max-grade", "3")[0] == 0
            assert (weight_cap(), grade_cap()) == (8, 6)
            log_identity_closed_form(4)  # grade 4 is within the default cap
            # also when the command itself fails
            code, out = run_cli("surj-log", "--grade", "5", "--max-grade", "3", capsys=capsys)
            assert code == 2
            assert "cap" in out.err
            assert (weight_cap(), grade_cap()) == (8, 6)


class TestLogflow:
    def test_golden_order_two(self, capsys):
        code, out = run_cli("logflow", "--order", "2", "--continuous", capsys=capsys)
        assert code == 0
        lines = out.out.strip().splitlines()
        assert lines == [
            "V_i I_{i}",
            "-1/2 V_i V_j I_{[ij]}",
            "1/2 V_i V_j I_{ij}",
            "-1/2 V_i V_j I_{ji}",
        ]

    def test_default_keeps_jump_terms(self, capsys):
        code, cont = run_cli("logflow", "--order", "3", "--continuous", capsys=capsys)
        code, jump = run_cli("logflow", "--order", "3", capsys=capsys)
        assert len(jump.out.splitlines()) == len(cont.out.splitlines()) + 1

    def test_matrix_variant(self, capsys):
        # the matrix log is matrix-log's output (TestMatrixLog); logflow has no --matrix
        with pytest.raises(SystemExit) as exit_:
            main(["logflow", "--order", "1", "--matrix", "2"])
        assert exit_.value.code == 2
        assert "--matrix" in capsys.readouterr().err


class TestMatrixLog:
    def test_round_trips_with_library(self, capsys):
        from itoflow import MatrixExpansion, matrix_log

        code, out = run_cli(
            "matrix-log", "--dim", "2", "--order", "2", "--json", capsys=capsys
        )
        assert code == 0
        assert MatrixExpansion.from_json_dict(json.loads(out.out)) == matrix_log(2, 2)

    def test_text_output_is_one_line_per_entry(self, capsys):
        from itoflow import matrix_log

        code, out = run_cli("matrix-log", "--dim", "2", "--order", "2", capsys=capsys)
        assert code == 0
        m = matrix_log(2, 2)
        want = [f"({i},{j}): {m[i, j].pretty()}" for i in (1, 2) for j in (1, 2)]
        assert out.out.splitlines() == want

    def test_taylor_flag(self, capsys):
        from itoflow import MatrixExpansion, matrix_ito_taylor

        code, out = run_cli(
            "matrix-log", "--dim", "1", "--order", "3", "--taylor", "--json",
            capsys=capsys,
        )
        assert MatrixExpansion.from_json_dict(json.loads(out.out)) == matrix_ito_taylor(1, 3)


class TestVerify:
    def test_algebra_suite_passes(self, capsys):
        code, out = run_cli(
            "verify", "algebra", "--grade", "3", "--deterministic", capsys=capsys
        )
        assert code == 0
        assert "PASS" in out.out
        assert "FAIL" not in out.out

    def test_algebra_suite_runs_past_the_weight_cap(self, capsys):
        # 2 x grade 5 is past the default weight cap 8
        with caps(weight=8, grade=6):
            code, out = run_cli(
                "verify", "algebra", "--grade", "5", "--deterministic", capsys=capsys
            )
        assert code == 0
        assert "FAIL" not in out.out

    def test_json_report_schema(self, capsys):
        code, out = run_cli(
            "verify", "theorem", "--grade", "3", "--json", "--deterministic",
            capsys=capsys,
        )
        assert code == 0
        payload = json.loads(out.out)
        assert payload["pass"] is True
        assert "timestamp" not in payload
        for case in payload["cases"]:
            assert set(case) == {
                "test", "max_abs_err", "tolerance", "pass", "seed",
                "grid_points", "paths",
            }

    def test_deterministic_json_is_byte_identical(self, capsys):
        argv = (
            "verify", "pathwise", "--steps", "256", "--seed", "11",
            "--json", "--deterministic",
        )
        code, first = run_cli(*argv, capsys=capsys)
        assert code == 0
        code, second = run_cli(*argv, capsys=capsys)
        assert code == 0
        assert first.out == second.out

    @pytest.mark.parametrize(
        "argv, unread",
        [
            (("theorem", "--steps", "8"), "--steps"),
            (("theorem", "--seed", "3"), "--seed"),
            (("algebra", "--paths", "2", "--steps", "8"), "--steps, --paths"),
            (("pathwise", "--grade", "3"), "--grade"),
        ],
    )
    def test_a_flag_the_suite_does_not_take_exits_2(self, capsys, argv, unread):
        code, out = run_cli("verify", *argv, capsys=capsys)
        assert code == 2
        assert out.err == f"error: suite {argv[0]} does not take {unread}\n"
        assert out.out == ""

    @pytest.mark.parametrize("grade", ["0", "-3"])
    def test_algebra_suite_below_grade_1_exits_2(self, capsys, grade):
        code, out = run_cli("verify", "algebra", "--grade", grade, capsys=capsys)
        assert code == 2
        assert out.err == f"error: grade must be >= 1, not {grade}\n"
        assert out.out == ""

    @pytest.mark.parametrize("paths", ["0", "-3"])
    def test_flow_suite_with_no_paths_exits_2(self, capsys, paths):
        code, out = run_cli("verify", "flow", "--steps", "8", "--paths", paths, capsys=capsys)
        assert code == 2
        assert "n_paths must be >= 1" in out.err

    def test_a_report_without_deterministic_is_stamped(self, capsys):
        code, out = run_cli("verify", "theorem", "--grade", "2", "--json", capsys=capsys)
        assert code == 0
        payload = json.loads(out.out)
        assert payload["pass"] is True
        assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d", payload["timestamp"])


class TestSimulate:
    def test_csv_to_stdout(self, capsys):
        code, out = run_cli(
            "simulate", "--drivers", "brownian:1.0", "--steps", "4", capsys=capsys
        )
        assert code == 0
        lines = out.out.strip().splitlines()
        assert lines[0] == "t,x1"
        assert len(lines) == 6  # header + 5 grid points

    def test_binary_file_reads_back(self, tmp_path, capsys):
        target = tmp_path / "paths.itopath"
        code, _ = run_cli(
            "simulate", "--drivers", "brownian:1.0,poisson:2.0", "--steps", "16",
            "--seed", "3", "--out", str(target), capsys=capsys,
        )
        assert code == 0
        bundle = read_bundle(target)
        assert bundle.letters() == [1, 2]
        assert bundle[1].n_steps == 16

    def test_csv_on_stdout_reads_back(self, tmp_path, capsys):
        # stdout ends in a blank line after the CSV: the reader skips it
        argv = ["simulate", "--drivers", "brownian:1.0,poisson:2.0", "--steps", "16", "--seed", "3"]
        code, out = run_cli(*argv, capsys=capsys)
        assert code == 0
        printed = tmp_path / "printed.csv"
        printed.write_text(out.out, encoding="utf-8")
        written = tmp_path / "written.csv"
        assert run_cli(*argv, "--out", str(written), capsys=capsys)[0] == 0
        bundle, again = read_bundle(printed), read_bundle(written)
        assert bundle.letters() == again.letters() == [1, 2]
        for letter in (1, 2):
            assert bundle[letter].values.tobytes() == again[letter].values.tobytes()

    def test_unknown_driver_exits_2(self, capsys):
        code, out = run_cli("simulate", "--drivers", "gamma:1.0", capsys=capsys)
        assert code == 2
        assert out.err.startswith("error: unknown driver 'gamma'")

    @pytest.mark.parametrize(
        "text, spec",
        [
            ("brownian", DriverSpec("brownian")),
            ("brownian:0.5", DriverSpec("brownian", sigma=0.5)),
            ("poisson:3", DriverSpec("poisson", rate=3.0)),
            ("drift:-2", DriverSpec("linear_drift", slope=-2.0)),
            ("linear_drift:2", DriverSpec("linear_drift", slope=2.0)),
            (" Brownian:1", DriverSpec("brownian", sigma=1.0)),
        ],
    )
    def test_each_driver_name_sets_its_own_parameter(self, text, spec):
        assert _parse_driver(text) == spec

    @pytest.mark.parametrize("driver, kind", [("brownian", "brownian"), ("drift", "linear_drift")])
    def test_a_path_past_the_float_range_exits_2_without_warnings(self, capsys, driver, kind):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(
                "simulate", "--drivers", f"{driver}:1e308", "--horizon", "100", "--steps", "4",
                capsys=capsys,
            )
        assert code == 2
        assert out.err == f"error: {kind} path must be finite\n"
        assert out.out == ""

    def test_a_poisson_rate_past_the_sampler_names_its_driver(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(
                "simulate", "--drivers", "poisson:1e308", "--horizon", "100", "--steps", "4",
                capsys=capsys,
            )
        assert code == 2
        assert out.err.startswith("error: poisson driver of rate 1e+308")
        assert out.out == ""


class TestFlowCompare:
    def test_small_run_reports_decreasing_errors(self, capsys):
        code, out = run_cli(
            "flow-compare", "--steps", "128", "--paths", "8", "--orders", "1,2",
            "--seed", "4", "--json", "--deterministic", capsys=capsys,
        )
        assert code == 0
        payload = json.loads(out.out)
        assert (
            payload["mean_strong_error_log"]["1"]
            > payload["mean_strong_error_log"]["2"]
        )

    def test_default_problem_is_the_flow_study(self, capsys):
        code, out = run_cli(
            "flow-compare", "--dim", "3", "--steps", "64", "--paths", "8",
            "--json", "--deterministic", capsys=capsys,
        )
        assert code == 0
        report = compare_flows(flow_problem(64, dim=3), (1, 2, 3), 8, 0)
        assert json.loads(out.out) == report

    def test_text_header_shows_the_problem_run(self, capsys):
        code, out = run_cli(
            "flow-compare", "--steps", "64", "--paths", "8", "--orders", "1", capsys=capsys
        )
        assert code == 0
        assert out.out.splitlines()[0] == "dim 2, T 0.1, steps 64, paths 8, seed 0"

    @pytest.mark.parametrize("field", ["drift", "diffusion"])
    def test_one_matrix_overrides_its_default_alone(self, capsys, field):
        matrix = np.array([[0.0, 0.5], [-0.5, 0.0]])
        code, out = run_cli(
            "flow-compare", "--steps", "64", "--paths", "8", f"--{field}", "0,0.5;-0.5,0",
            "--json", "--deterministic", capsys=capsys,
        )
        assert code == 0
        problem = replace(flow_problem(64), **{field: matrix})
        assert json.loads(out.out) == compare_flows(problem, (1, 2, 3), 8, 0)

    @pytest.mark.parametrize("horizon", ["1e3", "99999999999999999999"])
    def test_a_result_past_the_float_range_exits_2(self, capsys, horizon):
        code, out = run_cli(
            "flow-compare", "--horizon", horizon, "--steps", "8", "--paths", "2", capsys=capsys
        )
        assert code == 2
        assert "matrix exponential must be finite" in out.err
        assert out.out == ""

    @pytest.mark.parametrize("error", [ZeroDivisionError, OverflowError, ArithmeticError])
    def test_another_arithmetic_error_is_not_taken_for_an_input_error(self, monkeypatch, error):
        """Only FloatRangeError exits 2: any other ArithmeticError is a
        fault of the library and keeps its traceback."""
        def fail(*args, **kwargs):
            raise error("a fault")

        monkeypatch.setattr("itoflow.cli.compare_flows", fail)
        with pytest.raises(error, match="a fault"):
            main(["flow-compare", "--steps", "8", "--paths", "2"])

    @pytest.mark.parametrize("orders", ["١", "1,²", "1,,2", "0", "+1"])
    def test_orders_are_ascii_digits(self, capsys, orders):
        code, out = run_cli(
            "flow-compare", "--steps", "8", "--paths", "2", "--orders", orders, capsys=capsys
        )
        assert code == 2
        assert out.err == f"error: --orders must be a comma list of positive ints, not {orders!r}\n"
        assert out.out == ""

    @pytest.mark.parametrize("paths", ["0", "-3"])
    def test_no_paths_exits_2(self, capsys, paths):
        code, out = run_cli("flow-compare", "--steps", "8", "--paths", paths, capsys=capsys)
        assert code == 2
        assert "n_paths must be >= 1" in out.err
        assert out.out == ""

    @pytest.mark.parametrize("field", ["--drift", "--diffusion"])
    @pytest.mark.parametrize("text", ["1,0;1", "1,,0;0,0", "1;0", "1,0;0,1;1,1", "1,0,0;0,1"])
    def test_a_matrix_of_another_shape_exits_2(self, capsys, field, text):
        code, out = run_cli(
            "flow-compare", "--steps", "8", "--paths", "2", field, text, capsys=capsys
        )
        assert code == 2
        assert out.err == f"error: matrix {text!r} is not 2x2\n"
        assert out.out == ""

    @pytest.mark.parametrize("field", ["--drift", "--diffusion"])
    @pytest.mark.parametrize("text", ["1,;0,0", "x,0;0,1", "1,0;0,1e", "1,0;0,1.2.3"])
    def test_a_matrix_field_that_is_not_a_float_exits_2(self, capsys, field, text):
        code, out = run_cli(
            "flow-compare", "--steps", "8", "--paths", "2", field, text, capsys=capsys
        )
        assert code == 2
        assert out.err == f"error: matrix {text!r} has a field that is not a float\n"
        assert out.out == ""


# an Arabic-Indic one, an underscore, an Arabic-Indic five after "0.", a
# fullwidth one: float() takes each, numpy's CSV float reader none
NOT_ASCII_FLOATS = ["\u0661", "1_0", "0.\u0665", "\uff11"]
ASCII_FLOATS = [
    "0.1", "1e-3", " 2.5 ", "+.5", "7", "5.", "0.30000000000000004", "1.7976931348623157e308",
]


@pytest.mark.parametrize("text", NOT_ASCII_FLOATS)
@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--steps", "4", "--drivers", "brownian:{}"],
        ["simulate", "--steps", "4", "--drivers", "brownian:1,poisson:{}"],
        ["flow-compare", "--steps", "8", "--paths", "2", "--drift", "{},0;0,1"],
        ["flow-compare", "--steps", "8", "--paths", "2", "--diffusion", "1,0;0,{}"],
    ],
    ids=["sigma", "rate", "drift", "diffusion"],
)
def test_float_text_that_is_not_ascii_exits_2(capsys, argv, text):
    code, out = run_cli(*[a.format(text) for a in argv], capsys=capsys)
    assert code == 2
    assert out.err == f"error: {text!r} is not a float written in ASCII\n"
    assert out.out == ""


@pytest.mark.parametrize("text", NOT_ASCII_FLOATS)
@pytest.mark.parametrize("command", ["simulate", "flow-compare"])
def test_a_horizon_that_is_not_ascii_exits_2(capsys, command, text):
    with pytest.raises(SystemExit) as exit_:
        main([command, "--horizon", text, "--steps", "4"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --horizon: {text!r} is not a float written in ASCII" in err


INT_FLAGS = ["--dim", "--steps", "--paths", "--grade", "--order", "--seed", "--max-grade", "--path-index"]
FLOAT_FLAGS = ["--horizon"]


def flag_uses(names):
    """Each of the named flags of each command, after the arguments that command needs."""
    return [
        pytest.param(
            [command] + {"qsh": ["1"], "verify": ["flow"]}.get(command, []),
            flag,
            id=f"{command} {flag}",
        )
        for command, flags in OPTIONS.items()
        for flag in flags
        if flag in names
    ]


INT_FLAG_USES = flag_uses(INT_FLAGS)


def refusal(capsys, argv) -> str:
    """The stderr of a command line that argparse refuses with exit code 2."""
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    return capsys.readouterr().err


@pytest.mark.parametrize("text", ["\u0662", "1_0"])
@pytest.mark.parametrize("argv, flag", INT_FLAG_USES)
def test_an_integer_flag_that_is_not_ascii_exits_2(capsys, argv, flag, text):
    """int() alone would read other scripts' digits and underscores; the
    refusal names the ASCII rule, not the private function that reads it."""
    err = refusal(capsys, argv + [flag, text])
    assert f"argument {flag}: {text!r} is not an int written in ASCII" in err
    assert "Traceback" not in err and "_int" not in err


@pytest.mark.parametrize("text", ["\u0662", "1_0"])
@pytest.mark.parametrize("argv, flag", flag_uses(FLOAT_FLAGS))
def test_a_float_flag_that_is_not_ascii_exits_2(capsys, argv, flag, text):
    """The float twin: the refusal names the ASCII rule, not _float."""
    err = refusal(capsys, argv + [flag, text])
    assert f"argument {flag}: {text!r} is not a float written in ASCII" in err
    assert "Traceback" not in err and "_float" not in err


@pytest.mark.parametrize("argv, flag", INT_FLAG_USES)
def test_an_ascii_integer_flag_reads_as_int_reads_it(argv, flag):
    for text in ["12", " +7 ", "-3", "007"]:
        args = build_parser().parse_args(argv + [flag, text])
        assert getattr(args, flag[2:].replace("-", "_")) == int(text)


@pytest.mark.parametrize("as_json", [False, True])
@pytest.mark.parametrize("deterministic", [False, True])
def test_a_report_is_stamped_unless_deterministic_and_written_in_its_form(
    capsys, as_json, deterministic
):
    args = argparse.Namespace(json=as_json, out=None, deterministic=deterministic)
    payload = {"suite": "x", "pass": True}
    _emit_report(args, payload, ["line one", "line two"])
    out = capsys.readouterr().out
    assert ("timestamp" in payload) is not deterministic
    assert set(payload) - {"timestamp"} == {"suite", "pass"}
    assert out == (json.dumps(payload, indent=2) if as_json else "line one\nline two") + "\n"


@pytest.mark.parametrize("text", ASCII_FLOATS)
def test_ascii_float_text_reads_to_the_bits_of_float(text):
    bits = float(text).hex()
    assert _parse_driver(f"brownian:{text}").sigma.hex() == bits
    assert _parse_driver(f"poisson:{text}").rate.hex() == bits
    assert _parse_driver(f"drift:{text}").slope.hex() == bits
    assert [x.hex() for x in _parse_matrix(f"{text},0;0,{text}", 2).diagonal()] == [bits] * 2
    for command in ("simulate", "flow-compare"):
        assert build_parser().parse_args([command, "--horizon", text]).horizon.hex() == bits


@pytest.mark.parametrize(
    "argv",
    [
        ["qsh", "12", "3"],
        ["surj-log", "--grade", "3"],
        ["matrix-log", "--dim", "2", "--order", "2"],
        ["verify", "theorem", "--deterministic"],
    ],
    ids=["qsh", "surj-log", "matrix-log", "verify"],
)
def test_out_file_holds_exactly_the_printed_text(tmp_path, capsys, argv):
    code, printed = run_cli(*argv, capsys=capsys)
    assert code == 0
    target = tmp_path / "out.txt"
    code, out = run_cli(*argv, "--out", str(target), capsys=capsys)
    assert code == 0
    assert out.out == ""
    text = target.read_text(encoding="utf-8")
    assert text == printed.out
    assert text.endswith("\n") and not text.endswith("\n\n")


# each asks numpy for far more than the address space the command runs in
HUGE_SIZES = [
    "simulate --steps 4000000000000",
    "flow-compare --steps 4000000000000 --paths 2",
    "verify pathwise --steps 4000000000000",
    "flow-compare --dim 100000 --steps 8 --paths 2",
]


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("args", HUGE_SIZES)
def test_a_size_too_large_to_allocate_exits_2(args):
    """Under a 2 GiB address-space limit only: without one, a command may
    try to commit the memory."""
    result = subprocess.run(
        [sys.executable, "-m", "itoflow.cli", *args.split()],
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=_limit_address_space,
    )
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("error: Unable to allocate")


def test_console_script_runs():
    result = subprocess.run(
        [sys.executable, "-m", "itoflow.cli", "qsh", "1", "2"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    assert "I_{12}" in result.stdout
