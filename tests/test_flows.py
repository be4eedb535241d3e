"""Linear matrix flows: reference solver, truncations, comparison study."""

import numpy as np
import pytest
from scipy.linalg import expm

from itoflow import (
    FlowProblem,
    compare_flows,
    flow_reference,
    truncated_expm,
)
from itoflow import flows as flows_module
from itoflow.flows import _strong_errors, brownian_increments, flow_from_log, flow_from_taylor
from itoflow.verify import flow_problem

A = np.array([[0.0, 1.0], [0.0, 0.0]])
B = np.array([[0.5, 0.0], [1.0, -0.5]])


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
        assert np.allclose(p.grid(), [0.0, 0.25, 0.5, 0.75, 1.0])
        assert p.dt == 0.25


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

    def test_reports_repeat_exactly(self):
        p = small_problem(steps=64)
        runs = [compare_flows(p, orders=[1, 2], n_paths=6, seed=11, batch_size=4) for _ in range(2)]
        assert runs[0] == runs[1]
