"""Numeric flow maps for linear matrix equations dX = X_- dM.

The driving matrix is M_t = A t + B W_t with one scalar Brownian motion W,
so entry (i, j) follows the path A[i,j] t + B[i,j] W_t; non-commuting A
and B make the flow genuinely noncommutative.  Three routes to X_T:

    flow_reference    left-point Euler product over the full grid
    flow_from_taylor  truncated iterated-integral series, evaluated
                      pathwise on the same grid
    flow_from_log     truncated series logarithm evaluated pathwise, then
                      a numeric matrix exponential

On a shared grid the order-M Taylor evaluation equals the Euler product
exactly (the product expands into exactly those left-point sums), so all
comparisons are pure truncation studies, free of scheme mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ._config import _count, _finite, _typed
from .evaluate import Evaluator
from .matrixseries import MatrixExpansion, entry_letter, matrix_ito_taylor, matrix_log
from .paths import _check_horizon, make_grid, rng_for

EXPM_TOL = 1e-12
# flow_reference forms dM for about this many floats' worth of steps at once
_STEP_FLOATS = 1 << 15


@dataclass(frozen=True, eq=False)
class FlowProblem:
    """dX = X_- dM with M_t = drift * t + diffusion * W_t on [0, horizon]."""

    dim: int
    drift: np.ndarray
    diffusion: np.ndarray
    horizon: float
    steps: int

    def __post_init__(self):
        object.__setattr__(self, "drift", _finite("drift", self.drift))
        object.__setattr__(self, "diffusion", _finite("diffusion", self.diffusion))
        object.__setattr__(self, "dim", _count("dim", self.dim))
        object.__setattr__(self, "steps", _count("steps", self.steps))
        d = self.dim
        if self.drift.shape != (d, d) or self.diffusion.shape != (d, d):
            raise ValueError(f"coefficient matrices must be {d}x{d}")
        _check_horizon(self.horizon)

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    def grid(self) -> np.ndarray:
        return make_grid(self.horizon, self.steps)


def brownian_increments(
    problem: FlowProblem, seed: int, path_indices: Iterable[int]
) -> np.ndarray:
    """Scalar Brownian increments, one row per path index, keyed per path."""
    idx = list(path_indices)
    out = np.empty((len(idx), problem.steps))
    scale = np.sqrt(problem.dt)
    for row, p in enumerate(idx):
        out[row] = rng_for(seed, p, 0).normal(0.0, scale, size=problem.steps)
    return out


def _check_increments(problem: FlowProblem, dW) -> np.ndarray:
    """dW as a finite (paths, problem.steps) float array, else ValueError;
    a problem that is not a FlowProblem raises TypeError."""
    _typed("problem", problem, FlowProblem)
    dW = _finite("dW", dW)
    if dW.ndim != 2 or dW.shape[1] != problem.steps:
        raise ValueError(f"dW must be shaped (paths, {problem.steps}), not {dW.shape}")
    return dW


def entry_increments(problem: FlowProblem, dW: np.ndarray) -> dict[int, np.ndarray]:
    """Increments of each matrix-entry letter for a batch of paths."""
    d = problem.dim
    out = {}
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            a = problem.drift[i - 1, j - 1]
            b = problem.diffusion[i - 1, j - 1]
            out[entry_letter(i, j, d)] = a * problem.dt + b * dW
    return out


def flow_reference(problem: FlowProblem, dW: np.ndarray) -> np.ndarray:
    """Left-point Euler recursion X <- X + X dM over the grid, batched.

    The steps' dM = drift dt + dW diffusion are formed a chunk of steps
    at a time, as one contiguous (steps, paths, d, d) stack.  Each step's
    dM is then a contiguous (paths, d, d) array, as one formed on its own
    would be, so the matmul runs the same kernel and rounds the same way.
    """
    dW = _check_increments(problem, dW)
    paths = dW.shape[0]
    d = problem.dim
    a_dt = problem.drift * problem.dt
    b = problem.diffusion
    x = np.broadcast_to(np.eye(d), (paths, d, d)).copy()
    xdm = np.empty_like(x)
    chunk = max(1, _STEP_FLOATS // max(x.size, 1))
    for m0 in range(0, problem.steps, chunk):
        dms = a_dt + dW[:, m0 : m0 + chunk].T[:, :, None, None] * b
        for dm in dms:
            np.matmul(x, dm, out=xdm)
            np.add(x, xdm, out=x)
    return x


def _evaluate_matrix(
    me: MatrixExpansion, ev: Evaluator, paths: int
) -> np.ndarray:
    d = me.dim
    out = np.empty((paths, d, d))
    for i in range(d):
        for j in range(d):
            out[:, i, j] = ev(me.entries[i][j])
    return out


def flow_from_taylor(problem: FlowProblem, order: int, dW: np.ndarray) -> np.ndarray:
    """Truncated series evaluated pathwise: one (dim, dim) matrix per path."""
    dW = _check_increments(problem, dW)
    me = matrix_ito_taylor(problem.dim, order)
    ev = Evaluator(entry_increments(problem, dW))
    return _evaluate_matrix(me, ev, dW.shape[0])


def flow_from_log(problem: FlowProblem, order: int, dW: np.ndarray) -> np.ndarray:
    """exp(truncated log series), evaluated pathwise."""
    dW = _check_increments(problem, dW)
    me = matrix_log(problem.dim, order)
    ev = Evaluator(entry_increments(problem, dW))
    logs = _evaluate_matrix(me, ev, dW.shape[0])
    return truncated_expm(logs)


def truncated_expm(mats: np.ndarray) -> np.ndarray:
    """Matrix exponential of a stack: scaling and squaring on the series.

    The scaling count is shared across the stack (from the largest norm),
    which keeps the computation vectorized and deterministic; inputs here
    are short-horizon logarithms with norms well below 1, so the series
    converges in a handful of terms.
    """
    mats = _finite("matrix stack", mats)
    if mats.ndim < 2 or mats.shape[-1] != mats.shape[-2]:
        raise ValueError(f"need a stack of square matrices, not shape {mats.shape}")
    if not mats.size:
        return np.empty(mats.shape)
    d = mats.shape[-1]
    norm = float(np.max(np.sum(np.abs(mats), axis=-1)))
    squarings = max(0, int(np.ceil(np.log2(norm / 0.5))) if norm > 0.5 else 0)
    scaled = mats / (2.0 ** squarings)
    eye = np.broadcast_to(np.eye(d), mats.shape)
    acc = eye.copy()
    term = eye.copy()
    for k in range(1, 64):
        term = term @ scaled / k
        acc = acc + term
        if float(np.max(np.abs(term))) < EXPM_TOL:
            break
    else:
        raise ArithmeticError("matrix exponential series failed to converge")
    for _ in range(squarings):
        acc = acc @ acc
    return acc


def _strong_errors(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Frobenius distance per path."""
    return np.sqrt(np.sum((x - y) ** 2, axis=(-2, -1)))


def compare_flows(
    problem: FlowProblem,
    orders: Sequence[int],
    n_paths: int,
    seed: int,
    batch_size: int = 250,
) -> dict:
    """Monte Carlo comparison of the three flow routes.

    Returns mean strong errors of exp(log_k) against the Euler reference
    per order, the mean gap between exp(log_k) and the order-k Taylor
    evaluation, and the empirical magnitude of the next Taylor layer
    (the natural yardstick for that gap).  Accumulation runs in a fixed
    path order, so a given (seed, batch_size) is bit-reproducible.
    """
    _typed("problem", problem, FlowProblem)
    n_paths, batch_size = _count("n_paths", n_paths), _count("batch_size", batch_size)
    orders = sorted({_count("order", k) for k in orders})
    if not orders:
        raise ValueError("need at least one order")
    kmax = orders[-1]
    taylor_sym = matrix_ito_taylor(problem.dim, kmax + 1)
    log_sym = matrix_log(problem.dim, kmax)
    words = {
        w for me in (taylor_sym, log_sym) for row in me.entries for e in row for w in e.support()
    }

    err_log = {k: 0.0 for k in orders}
    gap_taylor = {k: 0.0 for k in orders}
    next_layer = {k: 0.0 for k in orders}
    done = 0
    while done < n_paths:
        batch = min(batch_size, n_paths - done)
        dW = brownian_increments(problem, seed, range(done, done + batch))
        x_ref = flow_reference(problem, dW)
        ev = Evaluator(entry_increments(problem, dW))
        ev.terminals(words)  # every word of the batch in one trie sweep or walk
        taylor_orders = sorted(set(orders) | {k + 1 for k in orders})
        taylor_vals = {
            k: _evaluate_matrix(taylor_sym.truncate_weight(k), ev, batch)
            for k in taylor_orders
        }
        for k in orders:
            x_log = truncated_expm(
                _evaluate_matrix(log_sym.truncate_weight(k), ev, batch)
            )
            err_log[k] += float(np.sum(_strong_errors(x_ref, x_log)))
            gap_taylor[k] += float(np.sum(_strong_errors(taylor_vals[k], x_log)))
            next_layer[k] += float(
                np.sum(_strong_errors(taylor_vals[k + 1], taylor_vals[k]))
            )
        done += batch

    return {
        "dim": problem.dim,
        "horizon": problem.horizon,
        "steps": problem.steps,
        "paths": n_paths,
        "seed": seed,
        "orders": orders,
        "mean_strong_error_log": {str(k): err_log[k] / n_paths for k in orders},
        "mean_gap_log_vs_taylor": {str(k): gap_taylor[k] / n_paths for k in orders},
        "mean_next_taylor_layer": {str(k): next_layer[k] / n_paths for k in orders},
        "expm_tolerance": EXPM_TOL,
    }
