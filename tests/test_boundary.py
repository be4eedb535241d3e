"""The boundary contract, its type clause: every public function, given one
argument of a wrong type, raises TypeError, ValueError (CapExceeded,
BundleFormatError and WordParseError included) or OSError, and nothing else.
And its value clause: a malformed value of the right type raises ValueError,
as every size bound of the products and truncations that is not an int >= 0
(or None, where None means no limit) does.

Each function in itoflow.__all__ has one row of small valid arguments.
Each argument of the row is swapped in turn for every value in HOSTILE.
The size values -1, 0 and 10**30 are left out: an unbounded dimension
(matrix_ito_taylor(10**30, 1)) does not return.  Class constructors have
value rows only: Evaluator, PathBundle, FlowProblem, DriverSpec,
DriverAlphabet and MatrixExpansion.
"""

import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

import itoflow
from itoflow import (
    BracketWord,
    DriverAlphabet,
    DriverSpec,
    Expansion,
    FlowProblem,
    MatrixExpansion,
    PathBundle,
    SamplePath,
    Surjection,
    SurjElement,
    bundle_to_binary,
    bundle_to_csv,
    log_identity_closed_form,
    make_grid,
    matrix_log,
    simulate_bundle,
    write_bundle,
)

HOSTILE = ("x", None, (), True, 2.5, math.nan)

WORD = BracketWord([(1,), (1, 2)])
SURJ = Surjection([2, 1, 2])
GRID = make_grid(1.0, 4)
BUNDLE = simulate_bundle({1: DriverSpec("brownian"), 2: DriverSpec("linear_drift")}, GRID)
PROBLEM = FlowProblem(1, [[0.5]], [[1.0]], 0.1, 4)
ALPHABET = DriverAlphabet(2)
FILE = "bundle.bin"  # relative to the test's tmp_path, its working directory

ROWS = {
    "apply_element": (log_identity_closed_form(2).restrict(2), WORD),
    "apply_surjection": (SURJ, BracketWord.from_letters(1, 2, 3)),
    "apply_vanishing_rules": (Expansion.of(WORD), ALPHABET),
    "block": (2, 1),
    "bullet": (WORD, WORD),
    "bundle_from_binary": (bundle_to_binary(BUNDLE),),
    "bundle_from_csv": (bundle_to_csv(BUNDLE),),
    "bundle_to_binary": (BUNDLE,),
    "bundle_to_csv": (BUNDLE,),
    "caps": (8, 6),
    "compare_flows": (PROBLEM, [1], 1, 0),
    "compositions_of": (3,),
    "descent_sum_exact": (3, [1]),
    "descent_sum_within": (3, [1]),
    "diamond": (SURJ, SURJ),
    "discrete_bracket": (BUNDLE[1], BUNDLE[2]),
    "embed_composition": ([1, 2],),
    "entry_letter": (1, 2, 2),
    "enumerate_grade": (3,),
    "enumerate_surjections": (3, 2),
    "evaluate": (WORD, BUNDLE),
    "exp_element": (log_identity_closed_form(2), 2),
    "flow_reference": (PROBLEM, np.zeros((1, 4))),
    "grade_cap": (),
    "half_down": (WORD, WORD),
    "half_up": (WORD, WORD),
    "identity_series": (3,),
    "linear_field_log": (ALPHABET, 2, {1: [[1, 2], [0, -1]], 2: [[0, 1], [Fraction(1, 2), 0]]}),
    "log_flow_terms": (ALPHABET, 2),
    "log_identity_closed_form": (3,),
    "log_identity_series": (3,),
    "log_identity_subset_form": (3,),
    "make_grid": (1.0, 4),
    "matrix_exp": (matrix_log(2, 2), 2),
    "matrix_ito_taylor": (2, 2),
    "matrix_log": (2, 2),
    "pack": ([3, 5, 3],),
    "parse_surjection": ("212",),
    "parse_word": ("2.[1,3]",),
    "qsh": (WORD, WORD),
    "qsh_via_surjections": (WORD, WORD),
    "read_bundle": (FILE,),
    "rng_for": (7,),
    "run_suite": ("algebra",),
    "shuffle": (WORD, WORD),
    "shuffle_projection": (Expansion.of(WORD),),
    "simulate": (DriverSpec("poisson", rate=0.5), GRID),
    "simulate_bundle": ({1: DriverSpec("brownian")}, GRID),
    "strichartz_restriction": (3,),
    "subset_alternating_sum": (3, [1]),
    "truncated_expm": (np.zeros((2, 2, 2)),),
    "weight_cap": (),
    "write_bundle": (FILE, BUNDLE),
}
# keyword arguments that keep a row fast; they are not swapped
OPTIONS = {"run_suite": {"grade": 2}}

FUNCTIONS = sorted(
    name
    for name in itoflow.__all__
    if callable(getattr(itoflow, name)) and not isinstance(getattr(itoflow, name), type)
)


def test_every_public_function_has_a_row():
    assert sorted(ROWS) == FUNCTIONS


@pytest.mark.parametrize("name", sorted(ROWS))
def test_wrong_argument_types_raise_the_contract_errors(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_bundle(FILE, BUNDLE)
    fn, row, options = getattr(itoflow, name), ROWS[name], OPTIONS.get(name, {})
    fn(*row, **options)  # the row is valid and gives every required argument
    escaped = []
    for i in range(len(row)):
        for value in HOSTILE:
            args = row[:i] + (value,) + row[i + 1 :]
            try:
                fn(*args, **options)
            except (TypeError, ValueError, OSError):
                pass
            except Exception as e:  # anything else breaks the contract
                escaped.append(f"argument {i} = {value!r}: {type(e).__name__}: {e}")
    assert not escaped, f"{name}:\n" + "\n".join(escaped)


# the size bounds of the products and truncations, each called with a bound:
# an int >= 0, where None (if it is allowed) means no limit
EXPANSION = Expansion.unit() + Expansion.of(WORD)
LOG = matrix_log(2, 2)
BOUNDS = {
    "qsh-max_weight": lambda b: itoflow.qsh(WORD, WORD, max_weight=b),
    "qsh-expansions-max_weight": lambda b: itoflow.qsh(EXPANSION, EXPANSION, max_weight=b),
    "diamond-max_grade": lambda b: itoflow.diamond(SURJ, SURJ, max_grade=b),
    "matmul-max_weight": lambda b: LOG.matmul(LOG, max_weight=b),
    "matmul-zero-max_weight": lambda b: MatrixExpansion.zero(2).matmul(LOG, max_weight=b),
    "truncate-max_grade": lambda b: EXPANSION.truncate(b),
    "truncate-zero-max_grade": lambda b: Expansion.zero().truncate(b),
    "restrict-grade": lambda b: EXPANSION.restrict(b),
    "truncate_weight-max_weight": lambda b: LOG.truncate_weight(b),
}

# malformed values of the right type, each of which must raise ValueError
VALUE_ROWS = {
    "evaluate-unbound-letter": lambda: itoflow.evaluate(BracketWord.from_letters(3), BUNDLE),
    "Evaluator-no-letters": lambda: itoflow.Evaluator({}),
    "Evaluator-letter-0": lambda: itoflow.Evaluator({0: np.zeros(4)}),
    "Evaluator-nan": lambda: itoflow.Evaluator({1: np.array([0.0, math.nan])}),
    "Evaluator-shapes": lambda: itoflow.Evaluator({1: np.zeros(4), 2: np.zeros(5)}),
    "Evaluator-0d-float": lambda: itoflow.Evaluator({1: 1.0}),
    "Evaluator-0d-array": lambda: itoflow.Evaluator({1: np.array(2.0)}),
    "Evaluator._affine-0d-base": lambda: itoflow.Evaluator._affine(
        np.array(1.0), {1: (0.0, 1.0)}
    ),
    "Evaluator._affine-overflow": lambda: itoflow.Evaluator._affine(
        np.array([1.0, 2.0]), {1: (0.0, 1e308)}
    ),
    **{
        f"{site}={bad!r}": partial(call, bad)
        for site, call in BOUNDS.items()
        for bad in (-1, True, 2.5, math.nan)
    },
}


@pytest.mark.parametrize("name", sorted(VALUE_ROWS))
def test_malformed_values_raise_value_error(name):
    with pytest.raises(ValueError):
        VALUE_ROWS[name]()


PATH = BUNDLE[1]
# malformed values for the constructors: each raises the ValueError family,
# or TypeError where a value inside a container has the wrong type
CONSTRUCTOR_ROWS = {
    "PathBundle-str-path": lambda: PathBundle({1: "x"}),
    "PathBundle-none-path": lambda: PathBundle({1: None}),
    "PathBundle-no-paths": lambda: PathBundle({}),
    "PathBundle-letter-0": lambda: PathBundle({0: PATH}),
    "PathBundle-two-grids": lambda: PathBundle(
        {1: PATH, 2: SamplePath(make_grid(2.0, 4), PATH.values)}
    ),
    "FlowProblem-dim-0": lambda: FlowProblem(0, [[0.5]], [[1.0]], 0.1, 4),
    "FlowProblem-shapes": lambda: FlowProblem(2, [[0.5]], [[1.0]], 0.1, 4),
    "FlowProblem-nan-drift": lambda: FlowProblem(1, [[math.nan]], [[1.0]], 0.1, 4),
    "FlowProblem-horizon-0": lambda: FlowProblem(1, [[0.5]], [[1.0]], 0.0, 4),
    "FlowProblem-str-horizon": lambda: FlowProblem(1, [[0.5]], [[1.0]], "x", 4),
    "FlowProblem-steps-0": lambda: FlowProblem(1, [[0.5]], [[1.0]], 0.1, 0),
    "DriverSpec-kind": lambda: DriverSpec("gamma"),
    "DriverSpec-nan-sigma": lambda: DriverSpec("brownian", sigma=math.nan),
    "DriverSpec-negative-sigma": lambda: DriverSpec("brownian", sigma=-1.0),
    "DriverSpec-rate-0": lambda: DriverSpec("poisson", rate=0.0),
    "DriverSpec-str-rate": lambda: DriverSpec("poisson", rate="x"),
    "DriverSpec-no-table": lambda: DriverSpec("table"),
    "DriverSpec-nan-table": lambda: DriverSpec("table", table=(0.0, math.nan)),
    "DriverSpec-str-table": lambda: DriverSpec("table", table=("x",)),
    "DriverAlphabet-0": lambda: DriverAlphabet(0),
    "DriverAlphabet-float": lambda: DriverAlphabet(2.5),
    "DriverAlphabet-bool": lambda: DriverAlphabet(True),
    "DriverAlphabet-str-continuous": lambda: DriverAlphabet(1, continuous="no"),
    "DriverAlphabet-none-paired_qv": lambda: DriverAlphabet(1, paired_qv=None),
    "DriverAlphabet-int-cross_brackets_zero": lambda: DriverAlphabet(1, cross_brackets_zero=1),
    "MatrixExpansion-dim-0": lambda: MatrixExpansion(0, []),
    "MatrixExpansion-ragged": lambda: MatrixExpansion(
        2, [[Expansion.zero()] * 2, [Expansion.zero()]]
    ),
    "MatrixExpansion-int-entry": lambda: MatrixExpansion(1, [[1]]),
    "MatrixExpansion-no-rows": lambda: MatrixExpansion(1, None),
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTOR_ROWS))
def test_malformed_constructor_values_raise_the_contract_errors(name):
    with pytest.raises((TypeError, ValueError)):
        CONSTRUCTOR_ROWS[name]()


@pytest.mark.parametrize(
    "name, names",
    [
        ("Evaluator-0d-float", "increments of letter 1"),
        ("Evaluator-0d-array", "increments of letter 1"),
        ("Evaluator._affine-0d-base", "base increments"),
    ],
)
def test_an_increment_array_without_a_cells_axis_is_named(name, names):
    with pytest.raises(ValueError, match=f"^{names} need a cells axis$"):
        VALUE_ROWS[name]()


ZERO_MATRIX = MatrixExpansion.zero(2)
# what each bound gives at 0, and at None: no limit where None is allowed
BOUND_OUTPUTS = {
    "qsh-max_weight": (Expansion.zero(), itoflow.qsh(WORD, WORD)),
    "qsh-expansions-max_weight": (Expansion.unit(), itoflow.qsh(EXPANSION, EXPANSION)),
    "diamond-max_grade": (SurjElement.zero(), itoflow.diamond(SURJ, SURJ)),
    "matmul-max_weight": (ZERO_MATRIX, LOG.matmul(LOG)),
    "matmul-zero-max_weight": (ZERO_MATRIX, ZERO_MATRIX),
    "truncate-max_grade": (Expansion.unit(), ValueError),
    "truncate-zero-max_grade": (Expansion.zero(), ValueError),
    "restrict-grade": (Expansion.unit(), ValueError),
    "truncate_weight-max_weight": (ZERO_MATRIX, ValueError),
}


@pytest.mark.parametrize("site", sorted(BOUNDS))
def test_size_bounds_of_zero_and_none(site):
    at_zero, at_none = BOUND_OUTPUTS[site]
    assert BOUNDS[site](0) == at_zero
    if at_none is ValueError:
        with pytest.raises(ValueError):
            BOUNDS[site](None)
    else:
        assert BOUNDS[site](None) == at_none
