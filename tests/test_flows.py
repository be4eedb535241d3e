"""Linear matrix flows: reference solver, truncations, comparison study."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm

from itoflow import (
    BracketWord,
    Evaluator,
    FloatRangeError,
    FlowProblem,
    compare_flows,
    entry_letter,
    flow_reference,
    make_grid,
    matrix_ito_taylor,
    rng_for,
    truncated_expm,
)
from itoflow import flows as flows_module
from itoflow.flows import _strong_errors, brownian_increments, flow_from_log, flow_from_taylor
from itoflow.verify import flow_problem

A = np.array([[0.0, 1.0], [0.0, 0.0]])
B = np.array([[0.5, 0.0], [1.0, -0.5]])
# the steps each path's increments are drawn in at a time
DRAW = flows_module._DRAW_STEPS


def small_problem(steps=64, horizon=0.1):
    return FlowProblem(dim=2, drift=A, diffusion=B, horizon=horizon, steps=steps)


def reference_flow(problem, dW):
    """Oracle: the Euler recursion one step at a time, dM formed per step."""
    paths, d = dW.shape[0], problem.dim
    a_dt = problem.drift * problem.dt
    x = np.broadcast_to(np.eye(d), (paths, d, d)).copy()
    for m in range(problem.steps):
        dm = a_dt + dW[:, m, None, None] * problem.diffusion
        x = x + x @ dm
    return x


class TestFlowProblem:
    def test_validation(self):
        with pytest.raises(ValueError):
            FlowProblem(dim=2, drift=np.zeros((2, 3)), diffusion=B, horizon=1.0, steps=4)
        with pytest.raises(ValueError):
            FlowProblem(dim=2, drift=A, diffusion=B, horizon=-1.0, steps=4)
        with pytest.raises(ValueError):
            FlowProblem(dim=2, drift=A, diffusion=B, horizon=1.0, steps=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_inputs_are_refused(self, bad):
        drift = A.copy()
        drift[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            FlowProblem(dim=2, drift=drift, diffusion=B, horizon=1.0, steps=4)
        with pytest.raises(ValueError, match="finite"):
            FlowProblem(dim=2, drift=A, diffusion=np.full((2, 2), bad), horizon=1.0, steps=4)
        with pytest.raises(ValueError, match="finite"):
            FlowProblem(dim=2, drift=A, diffusion=B, horizon=bad, steps=4)

    @pytest.mark.parametrize("field", ["dim", "steps"])
    @pytest.mark.parametrize("bad", [2.5, 2.0, "2", True, None])
    def test_non_int_sizes_are_refused(self, field, bad):
        kwargs = dict(dim=2, drift=A, diffusion=B, horizon=1.0, steps=4)
        kwargs[field] = bad
        with pytest.raises(ValueError, match=field):
            FlowProblem(**kwargs)

    def test_numpy_int_sizes_become_ints(self):
        p = FlowProblem(dim=np.int64(2), drift=A, diffusion=B, horizon=1.0, steps=np.int32(4))
        assert (type(p.dim), type(p.steps)) == (int, int)

    def test_flow_study_problem(self):
        p2, p3 = flow_problem(8), flow_problem(8, dim=3, horizon=0.5)
        assert np.array_equal(p2.drift, A) and np.array_equal(p2.diffusion, B)
        assert (p2.horizon, p3.horizon) == (0.1, 0.5)
        assert np.array_equal(p3.drift, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        assert np.array_equal(p3.diffusion, [[0.5, 0, 0], [1, -0.5, 0], [0, 1, 0.5]])

    @pytest.mark.parametrize("bad", [0, -1, 2.5])
    def test_flow_study_dim_is_a_count(self, bad):
        with pytest.raises(ValueError, match="dim"):
            flow_problem(8, dim=bad)

    def test_grid(self):
        p = small_problem(steps=4, horizon=1.0)
        assert np.allclose(make_grid(p.horizon, p.steps), [0.0, 0.25, 0.5, 0.75, 1.0])
        assert p.dt == 0.25


class TestBrownianIncrements:
    @pytest.mark.parametrize("steps", [1, DRAW - 1, DRAW, DRAW + 1, 3000])
    def test_bytes_equal_one_draw_per_path(self, steps):
        p = small_problem(steps=steps)
        paths = [4, 0, 7]
        one_draw = [rng_for(9, path, 0).normal(0.0, np.sqrt(p.dt), steps) for path in paths]
        assert brownian_increments(p, 9, paths).tobytes() == np.array(one_draw).tobytes()


class TestFlowReference:
    @pytest.mark.parametrize(
        "dim, paths, steps",
        # 64 paths of 2x2 take 128 steps a chunk: 300 steps are 2 chunks and
        # a part; fewer paths make one partial chunk
        [(2, 64, 300), (2, 64, 128), (3, 1, 5), (3, 1, 1), (2, 7, 1000)],
    )
    def test_bytes_equal_the_per_step_loop(self, dim, paths, steps):
        rng = np.random.default_rng(dim * steps + paths)
        p = FlowProblem(
            dim=dim,
            drift=rng.normal(size=(dim, dim)),
            diffusion=rng.normal(size=(dim, dim)),
            horizon=0.1,
            steps=steps,
        )
        dW = brownian_increments(p, seed=2, path_indices=range(paths))
        assert flow_reference(p, dW).tobytes() == reference_flow(p, dW).tobytes()


ROUTES = [
    pytest.param(flow_reference, id="euler"),
    pytest.param(lambda p, dW: flow_from_taylor(p, order=2, dW=dW), id="taylor"),
    pytest.param(lambda p, dW: flow_from_log(p, order=2, dW=dW), id="log"),
]


class TestIncrementsAreChecked:
    # a 64-step problem: 10 or 128 columns would run another grid than
    # problem.dt describes
    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("shape", [(4, 10), (4, 128), (64,), (4, 64, 1), ()])
    def test_wrong_shape_is_refused(self, route, shape):
        with pytest.raises(ValueError, match=r"dW must be shaped \(paths, 64\)"):
            route(small_problem(steps=64), np.zeros(shape))

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_values_are_refused(self, route, bad):
        dW = np.zeros((4, 64))
        dW[2, 17] = bad
        with pytest.raises(ValueError, match="finite"):
            route(small_problem(steps=64), dW)

    @pytest.mark.parametrize("route", ROUTES)
    def test_anything_but_a_flow_problem_is_a_type_error(self, route):
        with pytest.raises(TypeError, match="problem must be FlowProblem, not str"):
            route("x", np.zeros((4, 64)))

    def test_a_nested_list_is_an_array(self):
        p = small_problem(steps=4)
        dW = brownian_increments(p, seed=1, path_indices=range(2))
        assert flow_reference(p, dW.tolist()).tobytes() == flow_reference(p, dW).tobytes()


class TestTruncatedExpm:
    def test_matches_scipy_on_random_stack(self):
        rng = np.random.default_rng(0)
        mats = rng.normal(size=(5, 3, 3))
        ours = truncated_expm(mats)
        reference = np.stack([expm(m) for m in mats])
        assert np.max(np.abs(ours - reference)) < 1e-11

    def test_handles_large_norm_by_squaring(self):
        m = np.array([[[0.0, 30.0], [-30.0, 0.0]]])
        assert np.max(np.abs(truncated_expm(m)[0] - expm(m[0]))) < 1e-8

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_stack_is_refused(self, bad):
        mats = np.zeros((3, 2, 2))
        mats[1, 0, 1] = bad
        with pytest.raises(ValueError, match="matrix stack must be finite"):
            truncated_expm(mats)

    @pytest.mark.parametrize("shape", [(0, 2, 2), (0, 3, 3), (2, 0, 3, 3), (4, 0, 0)])
    def test_empty_stack_is_empty(self, shape):
        out = truncated_expm(np.zeros(shape))
        assert out.shape == shape
        assert out.dtype == np.float64

    @pytest.mark.parametrize("shape", [(), (3,), (2, 3), (4, 2, 3), (0, 2, 3)])
    def test_non_square_input_is_refused(self, shape):
        with pytest.raises(ValueError, match="square matrices"):
            truncated_expm(np.zeros(shape))

    def test_zero_matrix(self):
        z = np.zeros((1, 2, 2))
        assert np.array_equal(truncated_expm(z)[0], np.eye(2))

    @pytest.mark.parametrize("scale", [800.0, 1e20])
    def test_a_result_past_the_float_range_is_an_arithmetic_error(self, scale):
        """A finite stack whose exponential overflows while squaring raises
        FloatRangeError, an ArithmeticError, with no RuntimeWarning on the way."""
        m = np.array([[[1.0, 1.0], [0.0, -1.0]]]) * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatRangeError, match="matrix exponential must be finite"):
                truncated_expm(m)
        assert issubclass(FloatRangeError, ArithmeticError)
        assert flows_module.FloatRangeError is FloatRangeError

    def test_a_norm_near_the_float_range_is_scaled_without_overflow(self):
        """A nilpotent stack of norm 5e307 needs 1024 squarings: 2.0 ** 1024
        would overflow, while its exponential I + m is finite and exact."""
        m = np.array([[[0.0, 5e307], [0.0, 0.0]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(truncated_expm(m), np.eye(2) + m)

    def test_a_norm_past_the_float_range_is_an_arithmetic_error(self):
        """A finite stack whose row sums overflow raises FloatRangeError, not
        OverflowError, with no RuntimeWarning on the way."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatRangeError, match="matrix norm must be finite"):
                truncated_expm(np.full((1, 2, 2), 1e308))

    @pytest.mark.parametrize(
        "top", [0.5, np.nextafter(0.5, 1.0)], ids=["no squaring", "one squaring"]
    )
    def test_the_scaling_edge_matches_scipy(self, top):
        """At infinity-norm exactly 1/2 the series is summed unscaled; at the
        next float above it the stack is halved and squared once."""
        m = np.array([[[0.0, top], [-0.25, 0.25]], [[0.125, 0.0], [0.25, -0.125]]])
        assert np.max(np.sum(np.abs(m), axis=-1)) == top
        reference = np.stack([expm(a) for a in m])
        err = np.max(np.abs(truncated_expm(m) - reference))
        assert err <= 1e-13 * np.max(np.abs(reference))


def test_identity_stacks_are_writable_and_own_their_data():
    x = flows_module._identities((2, 3, 4, 4))
    assert x.flags.writeable and x.flags.owndata
    assert np.array_equal(x, np.broadcast_to(np.eye(4), (2, 3, 4, 4)))


class TestDeterministicLimit:
    def test_nilpotent_drift_no_noise_is_exact_at_order_one(self):
        # A^2 = 0 and B = 0: Euler product and order-1 series both equal I + A T
        p = FlowProblem(dim=2, drift=A, diffusion=np.zeros((2, 2)), horizon=0.5, steps=32)
        dW = brownian_increments(p, seed=0, path_indices=range(1))
        ref = flow_reference(p, dW)
        tay = flow_from_taylor(p, order=1, dW=dW)
        assert np.allclose(ref, tay, atol=1e-14)
        assert np.allclose(ref[0], np.eye(2) + 0.5 * A, atol=1e-14)

    def test_taylor_at_full_order_reproduces_euler_exactly(self):
        p = small_problem(steps=4)
        dW = brownian_increments(p, seed=3, path_indices=range(2))
        ref = flow_reference(p, dW)
        tay = flow_from_taylor(p, order=4, dW=dW)
        assert np.max(np.abs(ref - tay)) < 1e-13


class TestRoutes:
    def test_log_route_close_to_taylor_route(self):
        p = small_problem(steps=256)
        dW = brownian_increments(p, seed=1, path_indices=range(8))
        tay = flow_from_taylor(p, order=3, dW=dW)
        lg = flow_from_log(p, order=3, dW=dW)
        assert np.max(np.abs(tay - lg)) < 1e-2

    def test_strong_errors_shape(self):
        a = np.zeros((4, 2, 2))
        b = np.ones((4, 2, 2))
        errs = _strong_errors(a, b)
        assert errs.shape == (4,)
        assert np.allclose(errs, 2.0)


def compare_orders_to_3(problem):
    return compare_flows(problem, orders=[1, 2, 3], n_paths=2, seed=0)


def compare_wide(problem):
    """compare_flows on one batch past the sweep's crossover (8 rows x C10's
    166 trie nodes), so its increments are streamed."""
    return compare_flows(problem, orders=[1, 2, 3], n_paths=8, seed=0)


# entry (2, 1) overflows its letter, 1e308 * dW, and the Euler product
OVERFLOWING_ENTRY = FlowProblem(
    dim=2, drift=A, diffusion=np.array([[0.5, 0.0], [1e308, -0.5]]), horizon=100.0, steps=8
)
# nilpotent: Euler and Taylor stay finite, the log's brackets do not
NILPOTENT = FlowProblem(
    dim=2,
    drift=np.zeros((2, 2)),
    diffusion=np.array([[0.0, 1e200], [0.0, 0.0]]),
    horizon=1.0,
    steps=8,
)


def on_two_paths(route, *order):
    """route run on the first two paths of the problem's increments."""
    return lambda problem: route(problem, *order, brownian_increments(problem, 0, range(2)))


class TestCompareFlows:
    def test_report_structure_and_ordering(self):
        p = small_problem(steps=128)
        report = compare_flows(p, orders=[1, 2], n_paths=16, seed=7)
        assert report["orders"] == [1, 2]
        e1 = report["mean_strong_error_log"]["1"]
        e2 = report["mean_strong_error_log"]["2"]
        assert e1 > e2 > 0
        assert set(report["mean_gap_log_vs_taylor"]) == {"1", "2"}
        assert report["paths"] == 16

    def test_batching_does_not_change_results(self):
        p = small_problem(steps=64)
        r1 = compare_flows(p, orders=[1], n_paths=10, seed=5, batch_size=3)
        r2 = compare_flows(p, orders=[1], n_paths=10, seed=5, batch_size=10)
        assert r1["mean_strong_error_log"]["1"] == pytest.approx(
            r2["mean_strong_error_log"]["1"], rel=1e-12
        )

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(n_paths=0), "n_paths must be >= 1"),
            (dict(n_paths=-3), "n_paths must be >= 1"),
            (dict(n_paths=2.5), "n_paths must be an int"),
            (dict(n_paths=4, batch_size=0), "batch_size must be >= 1"),
            (dict(n_paths=4, batch_size=-1), "batch_size must be >= 1"),
            (dict(n_paths=4, batch_size=2.0), "batch_size must be an int"),
        ],
    )
    def test_path_counts_are_checked_first(self, monkeypatch, kwargs, message):
        # refused before the first symbolic call
        monkeypatch.setattr(flows_module, "matrix_ito_taylor", None)
        with pytest.raises(ValueError, match=message):
            compare_flows(small_problem(steps=8), orders=[1], seed=0, **kwargs)

    @pytest.mark.parametrize(
        "run, problem, stage",
        [
            (compare_orders_to_3, flow_problem(8, horizon=1e200), "Euler product"),
            (compare_orders_to_3, flow_problem(8, horizon=60.0), "strong error"),
            (compare_orders_to_3, NILPOTENT, "log series"),
            (compare_orders_to_3, OVERFLOWING_ENTRY, "Euler product"),
            # the same on a streamed batch: the Euler product's error comes
            # before the overflowing letter's
            (compare_wide, flow_problem(8, horizon=1e200), "Euler product"),
            (compare_wide, OVERFLOWING_ENTRY, "Euler product"),
            (compare_wide, NILPOTENT, "log series"),
            # each route checks its own result
            (on_two_paths(flow_reference), flow_problem(8, horizon=1e200), "Euler product"),
            (on_two_paths(flow_from_taylor, 3), flow_problem(8, horizon=1e200), "Taylor series"),
            (on_two_paths(flow_from_log, 3), flow_problem(8, horizon=1e200), "log series"),
        ],
        ids=[
            "compare-euler",
            "compare-strong-error",
            "compare-log",
            "compare-entry",
            "wide-euler",
            "wide-entry",
            "wide-log",
            "euler",
            "taylor",
            "log",
        ],
    )
    def test_an_overflow_on_finite_inputs_raises_once_without_warnings(self, run, problem, stage):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatRangeError, match=f"{stage} must be finite"):
                run(problem)

    def test_reports_repeat_exactly(self):
        p = small_problem(steps=64)
        runs = [compare_flows(p, orders=[1, 2], n_paths=6, seed=11, batch_size=4) for _ in range(2)]
        assert runs[0] == runs[1]


def formed_letters(problem, dW):
    """Every entry letter formed whole, a dt + b dW, one at a time."""
    a_dt, b, d = problem.drift * problem.dt, problem.diffusion, problem.dim
    return {
        entry_letter(i + 1, j + 1, d): a_dt[i, j] + dW * b[i, j]
        for i in range(d)
        for j in range(d)
    }


def plain_series_flows(problem, dW, taylor, logs):
    """_whole_series_flows on an Evaluator given formed_letters."""
    ev = Evaluator(formed_letters(problem, dW))
    ev.terminals(flows_module._series_words([*taylor.values(), *logs.values()]))
    return flows_module._series_flows(ev, taylor, logs)


def refuse(*args, **kwargs):
    raise AssertionError("the other route was taken")


class TestLettersFormedFromDW:
    """The routes form the entry letters from dM stacks; with each letter
    formed whole from dW instead, every bit is the same."""

    # C10's 166 trie nodes: 4 rows are below the sweep's crossover, 8 past
    # it.  A batch past it sweeps the Euler recursion's dM chunks, so the
    # plain run takes the whole-dW route to its sweep.
    @pytest.mark.parametrize("batch, unused", [(4, "_sweep"), (8, "_extend")])
    def test_compare_flows_reports_are_equal(self, monkeypatch, batch, unused):
        p = flow_problem(256)
        runs = []
        for plain in (False, True):
            with monkeypatch.context() as m:
                m.setattr(Evaluator, unused, refuse)
                if plain:
                    m.setattr(flows_module, "_sweeps", lambda rows, words: False)
                    m.setattr(flows_module, "_whole_series_flows", plain_series_flows)
                runs.append(compare_flows(p, [1, 2, 3], 2 * batch, seed=4, batch_size=batch))
        assert runs[0] == runs[1]

    def test_every_whole_dW_evaluation_goes_through_one_helper(self, monkeypatch):
        # 2 paths hold dW whole; 64 rows of C10's words are past the sweep crossover
        p = flow_problem(64)
        dW = brownian_increments(p, seed=1, path_indices=range(2))
        monkeypatch.setattr(flows_module, "_whole_series_flows", refuse)
        for run in (
            lambda: flow_from_taylor(p, 2, dW),
            lambda: flow_from_log(p, 2, dW),
            lambda: compare_flows(p, [1, 2, 3], 2, seed=0),
        ):
            with pytest.raises(AssertionError, match="the other route was taken"):
                run()
        compare_flows(p, [1, 2, 3], 64, seed=0)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_a_streamed_batch_equals_the_whole_dW_routes(self, monkeypatch, dim):
        # 8 rows x C10's trie nodes is past the crossover; the steps are
        # two whole draw chunks and part of a third.  The whole-dW routes
        # read each entry's letter formed whole, so a streamed entry
        # mapped to the wrong letter shows.
        p = flow_problem(2 * DRAW + 452, dim=dim)
        orders, n_paths, batch, seed = [1, 2, 3], 16, 8, 4
        with monkeypatch.context() as m:
            for name in ("brownian_increments", "flow_reference", "_whole_series_flows"):
                m.setattr(flows_module, name, refuse)
            got = compare_flows(p, orders, n_paths, seed, batch_size=batch)
        monkeypatch.setattr(flows_module, "_whole_series_flows", plain_series_flows)
        sums = {key: {k: 0.0 for k in orders} for key in ("log", "gap", "next")}
        for done in range(0, n_paths, batch):
            dW = brownian_increments(p, seed, range(done, done + batch))
            x_ref = flow_reference(p, dW)
            taylor = {k: flow_from_taylor(p, k, dW) for k in range(1, orders[-1] + 2)}
            for k in orders:
                log = flow_from_log(p, k, dW)
                sums["log"][k] += float(np.sum(_strong_errors(x_ref, log)))
                sums["gap"][k] += float(np.sum(_strong_errors(taylor[k], log)))
                sums["next"][k] += float(np.sum(_strong_errors(taylor[k + 1], taylor[k])))
        mean = {key: {str(k): v / n_paths for k, v in by.items()} for key, by in sums.items()}
        assert got == {
            "dim": dim,
            "horizon": p.horizon,
            "steps": p.steps,
            "paths": n_paths,
            "seed": seed,
            "orders": orders,
            "mean_strong_error_log": mean["log"],
            "mean_gap_log_vs_taylor": mean["gap"],
            "mean_next_taylor_layer": mean["next"],
            "expm_tolerance": flows_module.EXPM_TOL,
        }

    @pytest.mark.parametrize("route", [flow_from_taylor, flow_from_log])
    def test_routes_are_bit_identical(self, monkeypatch, route):
        p = small_problem(steps=64)
        dW = brownian_increments(p, seed=2, path_indices=range(3))
        got = route(p, 3, dW)
        monkeypatch.setattr(flows_module, "_whole_series_flows", plain_series_flows)
        assert got.tobytes() == route(p, 3, dW).tobytes()

    def test_an_overflowing_entry_is_named_without_warnings(self):
        # entry (2, 1) is letter 3 at dim 2: 1e300 * dW overflows
        b = np.array([[0.5, 0.0], [1e300, 0.0]])
        p = FlowProblem(dim=2, drift=A, diffusion=b, horizon=0.1, steps=4)
        dW = np.full((1, 4), 1e10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="increments of letter 3 must be finite"):
                flow_from_taylor(p, 2, dW)


# values that overflow a letter or the Euler product, or neither
EXTREMES = [0.0, 1.0, -1.0, 1e300, -1e300, 1.7e308, -1.7e308, 1.7976931348623157e308]


extreme_floats = st.one_of(st.sampled_from(EXTREMES), st.floats(-1.7e308, 1.7e308))


class TestEntryLetters:
    """Entry (i, j) of dM is letter entry_letter(i, j, dim); a streamed
    batch's letters are covered by its Euler product's check."""

    @pytest.mark.parametrize("streamed", [True, False], ids=["steps-paths", "paths-steps"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_each_letter_reads_its_entry_contiguously(self, dim, streamed):
        # a streamed chunk is the transposed (steps, paths) view of the
        # drawn dW, as the Euler recursion forms it; the whole route's dW is
        # (paths, steps)
        rng = np.random.default_rng(dim)
        p = FlowProblem(
            dim=dim,
            drift=rng.normal(size=(dim, dim)),
            diffusion=rng.normal(size=(dim, dim)),
            horizon=0.3,
            steps=5,
        )
        dW = rng.normal(size=(3, 5))
        if streamed:
            dW = dW.T
        letters = flows_module._letters(flows_module._letter_increments(p, dW))
        assert sorted(letters) == list(range(1, dim * dim + 1))
        for i in range(dim):
            for j in range(dim):
                inc = letters[entry_letter(i + 1, j + 1, dim)]
                assert inc.shape == dW.shape and inc.flags.c_contiguous
                expected = p.drift[i, j] * p.dt + p.diffusion[i, j] * dW
                assert inc.tobytes() == np.ascontiguousarray(expected).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 3), paths=st.integers(1, 3), steps=st.integers(2, 4))
    def test_a_streamed_batch_refuses_exactly_a_non_finite_letter_or_product(
        self, data, dim, paths, steps
    ):
        matrix = arrays(np.float64, (dim, dim), elements=extreme_floats)
        drift, diffusion = data.draw(matrix), data.draw(matrix)
        dW = data.draw(arrays(np.float64, (paths, steps), elements=extreme_floats))
        cut = data.draw(st.integers(1, steps - 1))
        p = FlowProblem(dim=dim, drift=drift, diffusion=diffusion, horizon=1.0, steps=steps)
        words = flows_module._series_words([matrix_ito_taylor(dim, 2)])

        def drawn(problem, seed, path_indices):
            yield dW[:, :cut]
            yield dW[:, cut:]

        with np.errstate(over="ignore", invalid="ignore"):
            letters = [drift[i, j] * p.dt + dW * diffusion[i, j] for i, j in np.ndindex(dim, dim)]
            oracle = reference_flow(p, dW)
        finite_letters = all(np.isfinite(inc).all() for inc in letters)
        with warnings.catch_warnings(), mock.patch.object(flows_module, "_drawn", drawn):
            warnings.simplefilter("error")
            if finite_letters and np.isfinite(oracle).all():
                x, _ = flows_module._streamed_batch(p, 0, range(paths), words)
                assert x.tobytes() == oracle.tobytes()
            else:
                # a non-finite letter is a non-finite dM entry, so the
                # product is never finite after it
                assert not np.isfinite(oracle).all()
                with pytest.raises(FloatRangeError, match="^Euler product must be finite"):
                    flows_module._streamed_batch(p, 0, range(paths), words)

    @pytest.mark.parametrize(
        "dW", [[1e308, 0.0, -1e308, 0.0], [-1e308, 0.0, 1e308, 0.0]], ids=["up-down", "down-up"]
    )
    def test_a_streamed_letter_is_checked_once_the_chunks_end(self, monkeypatch, dW):
        # letter 2 moves by -1e308 + dW and letter 3 by 1e308 + dW: one
        # overflows on each chunk's cells, and the Euler product's check
        # reports it once every chunk is read
        p = FlowProblem(
            dim=2,
            drift=np.array([[0.0, -1e308], [1e308, 0.0]]),
            diffusion=np.ones((2, 2)),
            horizon=4.0,
            steps=4,
        )
        words = [BracketWord([(1, 2, 3)])]
        read = []

        def drawn(problem, seed, paths):
            for c0 in (0, 2):
                read.append(c0)
                yield np.array([dW[c0 : c0 + 2]])

        monkeypatch.setattr(flows_module, "_drawn", drawn)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatRangeError, match="Euler product must be finite"):
                flows_module._streamed_batch(p, 0, range(1), words)
        assert read == [0, 2]
