"""Linear matrix flows: reference solver, truncations, comparison study."""

import numpy as np
import pytest
from scipy.linalg import expm

from itoflow import (
    FlowProblem,
    compare_flows,
    flow_from_log,
    flow_from_taylor,
    flow_reference,
    strong_errors,
    truncated_expm,
)
from itoflow.flows import brownian_increments

A = np.array([[0.0, 1.0], [0.0, 0.0]])
B = np.array([[0.5, 0.0], [1.0, -0.5]])


def small_problem(steps=64, horizon=0.1):
    return FlowProblem(dim=2, drift=A, diffusion=B, horizon=horizon, steps=steps)


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

    def test_grid(self):
        p = small_problem(steps=4, horizon=1.0)
        assert np.allclose(p.grid(), [0.0, 0.25, 0.5, 0.75, 1.0])
        assert p.dt == 0.25


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
        with pytest.raises(ValueError, match="non-finite"):
            truncated_expm(mats)

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
        errs = strong_errors(a, b)
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

    def test_reports_repeat_exactly(self):
        p = small_problem(steps=64)
        runs = [compare_flows(p, orders=[1, 2], n_paths=6, seed=11, batch_size=4) for _ in range(2)]
        assert runs[0] == runs[1]
