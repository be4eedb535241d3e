"""Numeric flow maps for linear matrix equations dX = X_- dM.

The driving matrix is M_t = A t + B W_t with one scalar Brownian motion W,
so entry (i, j) follows the path A[i,j] t + B[i,j] W_t; non-commuting A
and B make the flow genuinely noncommutative.  Three routes to X_T:

    flow_reference    left-point Euler product over the full grid
    flow_from_taylor  truncated iterated-integral series, evaluated
                      pathwise on the same grid
    flow_from_log     truncated series logarithm evaluated pathwise, then
                      a numeric matrix exponential

compare_flows composes the three on shared batches.  Every series
evaluation is one function, _series_flows; the two series routes and a
compare_flows batch that holds dW whole reach it through
_whole_series_flows.  Each route refuses its own float overflow on
finite inputs with FloatRangeError.

On a shared grid the order-M Taylor evaluation equals the Euler
product's terms of degree at most M in the increments (the product
expands into exactly those left-point sums), and the whole product at
M = steps, so all comparisons are pure truncation studies, free of
scheme mismatch.

Entry (i, j) of dM is the increment of one letter of the series,
entry_letter(i, j, dim), and moves by A[i,j] dt + B[i,j] dW on each step.
One helper, _letter_increments, forms dM letter-major, as a contiguous
(dim, dim) stack of the letters' increments, on both routes.  The Euler
recursion forms it a chunk of steps at a time.  A compare_flows batch
wide enough for the Evaluator's sweep holds no dW: each path's
increments are drawn about 1024 steps at a time, each drawn chunk steps
the Euler recursion, and each letter stack the recursion formed is swept
as it is, with no copy.  A 64-path C10 batch's traced peak is 2.8 MB at
2^12 and at 2^14 steps.  Its letters are dM's entries bit for bit, so
its Euler product's check covers them.  The series routes and a narrower
batch form the stack whole from dW, and Evaluator names a letter that
overflows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ._config import FloatRangeError, _count, _finite, _typed
from .evaluate import Evaluator, _prefix_trie, _sweeps
from .matrixseries import MatrixExpansion, entry_letter, matrix_ito_taylor, matrix_log
from .paths import _check_horizon, rng_for

EXPM_TOL = 1e-12
# the Euler recursion forms dM for about this many floats' worth of steps at once
_STEP_FLOATS = 1 << 15
# each path's increments are drawn this many steps at a time
_DRAW_STEPS = 1 << 10


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


def _drawn(problem: FlowProblem, seed: int, path_indices: Sequence[int]):
    """Scalar Brownian increments, one row per path index, keyed per path,
    yielded _DRAW_STEPS steps at a time as (paths, steps in the chunk)
    arrays in time order, finite as dt is.  Each row continues its path's
    own generator, so the chunks, joined, are one draw of all the steps."""
    rngs = [rng_for(seed, p, 0) for p in path_indices]
    scale = np.sqrt(problem.dt)
    # with no path there is nothing to draw, however many steps
    for m0 in range(0, problem.steps if rngs else 0, _DRAW_STEPS):
        chunk = np.empty((len(rngs), min(_DRAW_STEPS, problem.steps - m0)))
        for row, rng in zip(chunk, rngs):
            row[:] = rng.normal(0.0, scale, size=row.size)
        yield chunk


def brownian_increments(
    problem: FlowProblem, seed: int, path_indices: Iterable[int]
) -> np.ndarray:
    """Scalar Brownian increments, one row per path index, keyed per path."""
    idx = list(path_indices)
    out = np.empty((len(idx), problem.steps))
    for m0, chunk in zip(range(0, problem.steps, _DRAW_STEPS), _drawn(problem, seed, idx)):
        out[:, m0 : m0 + _DRAW_STEPS] = chunk
    return out


def _check_increments(problem: FlowProblem, dW) -> np.ndarray:
    """dW as a finite (paths, problem.steps) float array, else ValueError;
    a problem that is not a FlowProblem raises TypeError."""
    _typed("problem", problem, FlowProblem)
    dW = _finite("dW", dW)
    if dW.ndim != 2 or dW.shape[1] != problem.steps:
        raise ValueError(f"dW must be shaped (paths, {problem.steps}), not {dW.shape}")
    return dW


def _letter_increments(problem: FlowProblem, dW: np.ndarray) -> np.ndarray:
    """The matrix increment drift dt + diffusion dW at each value of dW,
    letter-major: a C-contiguous (dim, dim) + dW.shape stack whose [i, j]
    is the increments of letter entry_letter(i + 1, j + 1, dim), each
    contiguous too.  An overflow is left, unwarned, to the caller's range
    check."""
    d = problem.dim
    # a streamed chunk's dW is a transposed view: the broadcast reads a
    # contiguous copy of it about twice as fast
    dW = np.ascontiguousarray(dW)
    stack = np.empty((d, d) + dW.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(problem.diffusion[:, :, None, None], dW, out=stack)
        np.add(stack, (problem.drift * problem.dt)[:, :, None, None], out=stack)
    return stack


def _letters(stack: np.ndarray) -> dict[int, np.ndarray]:
    """Each entry letter's increments in a letter-major stack: a view of
    stack[i, j] for letter entry_letter(i + 1, j + 1, d)."""
    d = stack.shape[0]
    return {entry_letter(i + 1, j + 1, d): stack[i, j] for i in range(d) for j in range(d)}


def _euler_steps(problem: FlowProblem, x: np.ndarray, dW: np.ndarray):
    """Advance the (paths, d, d) stack x in place by the left-point Euler
    recursion X <- X + X dM over the steps of dW, shaped (paths, steps),
    and yield each chunk's entry letters, contiguous (steps in the chunk,
    paths) views of its letter stack, once x has stepped over the chunk.

    The steps' dM are formed a chunk of steps at a time, letter-major, and
    x steps over one matrix-major contiguous copy of the chunk, so each
    step's (paths, d, d) dM is contiguous.  Each d x d matrix has unit
    inner strides, as one formed alone would, so the matmul makes the same
    per-matrix call and rounds the same way, wherever dW's steps split.
    """
    xdm = np.empty_like(x)
    chunk = max(1, _STEP_FLOATS // max(x.size, 1))
    for m0 in range(0, dW.shape[1], chunk):
        stack = _letter_increments(problem, dW[:, m0 : m0 + chunk].T)
        # finite inputs can still overflow: that is reported once, as
        # FloatRangeError, not as numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            for dm in np.ascontiguousarray(stack.transpose(2, 3, 0, 1)):
                np.matmul(x, dm, out=xdm)
                np.add(x, xdm, out=x)
        yield _letters(stack)


def _identities(shape: tuple) -> np.ndarray:
    return np.broadcast_to(np.eye(shape[-1]), shape).copy()


def flow_reference(problem: FlowProblem, dW: np.ndarray) -> np.ndarray:
    """Left-point Euler recursion X <- X + X dM over the grid, batched."""
    dW = _check_increments(problem, dW)
    x = _identities((dW.shape[0], problem.dim, problem.dim))
    for _ in _euler_steps(problem, x, dW):
        pass
    return _finite("Euler product", x, FloatRangeError)


def _evaluate_matrix(me: MatrixExpansion, ev: Evaluator, paths: int, name: str) -> np.ndarray:
    """me evaluated pathwise by ev, one (dim, dim) matrix per path; a
    result past the float range raises FloatRangeError naming the series."""
    d = me.dim
    out = np.empty((paths, d, d))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(d):
            for j in range(d):
                out[:, i, j] = ev(me.entries[i][j])
    return _finite(name, out, FloatRangeError)


def _series_words(series: Iterable[MatrixExpansion]) -> list:
    """Every word of every series, sorted."""
    return sorted({w for me in series for row in me.entries for e in row for w in e.support()})


def _streamed_batch(
    problem: FlowProblem, seed: int, paths: range, trie: dict, words: list
) -> tuple:
    """The Euler flows of one batch, and the words' terminals, with its
    increments drawn a chunk of steps at a time and never held whole.

    Each drawn chunk of dW steps the Euler recursion, and each letter
    stack the recursion formed is then swept, each letter a contiguous
    (steps, paths) view of it, with no copy.  Only the Euler product is
    checked, once the last chunk is stepped: a letter past the float
    range is a non-finite dM entry, which leaves every row of the product
    non-finite from that step on.
    """
    x = _identities((len(paths), problem.dim, problem.dim))

    def fed():
        for dW in _drawn(problem, seed, paths):
            yield from _euler_steps(problem, x, dW)
        _finite("Euler product", x, FloatRangeError)

    shape, d = (len(paths), problem.steps), problem.dim
    letters = [entry_letter(i, j, d) for i in range(1, d + 1) for j in range(1, d + 1)]
    with np.errstate(over="ignore", invalid="ignore"):
        ev = Evaluator._streamed(shape, letters, trie, words, fed())
    return x, ev


def _series_flows(ev: Evaluator, paths: int, taylor: dict, logs: dict) -> tuple:
    """Each Taylor series summed from ev's terminals, and exp of each log
    series, keyed as given."""
    taylor_flows = {k: _evaluate_matrix(me, ev, paths, "Taylor series") for k, me in taylor.items()}
    return taylor_flows, {
        k: truncated_expm(_evaluate_matrix(me, ev, paths, "log series")) for k, me in logs.items()
    }


def _whole_series_flows(problem: FlowProblem, dW: np.ndarray, taylor: dict, logs: dict) -> tuple:
    """_series_flows on the checked dW, held whole: the Evaluator holds the
    (paths, steps) letters of one letter stack formed from the whole dW,
    every word's terminal is evaluated in one terminals call, and an
    overflow there is reported by the range check of the series that
    reads it."""
    ev = Evaluator(_letters(_letter_increments(problem, dW)))
    with np.errstate(over="ignore", invalid="ignore"):
        ev.terminals(_series_words([*taylor.values(), *logs.values()]))
    return _series_flows(ev, dW.shape[0], taylor, logs)


def flow_from_taylor(problem: FlowProblem, order: int, dW: np.ndarray) -> np.ndarray:
    """Truncated series evaluated pathwise: one (dim, dim) matrix per path."""
    dW = _check_increments(problem, dW)
    taylor = {order: matrix_ito_taylor(problem.dim, order)}
    return _whole_series_flows(problem, dW, taylor, {})[0][order]


def flow_from_log(problem: FlowProblem, order: int, dW: np.ndarray) -> np.ndarray:
    """exp(truncated log series), evaluated pathwise."""
    dW = _check_increments(problem, dW)
    logs = {order: matrix_log(problem.dim, order)}
    return _whole_series_flows(problem, dW, {}, logs)[1][order]


def truncated_expm(mats: np.ndarray) -> np.ndarray:
    """Matrix exponential of a stack: scaling and squaring on the series.

    The scaling count is shared across the stack (from the largest norm),
    which keeps the computation vectorized and deterministic; inputs here
    are short-horizon logarithms with norms well below 1, so the series
    converges in a handful of terms.  A finite stack whose norm or
    squared result leaves the float range raises FloatRangeError.
    """
    mats = _finite("matrix stack", mats)
    if mats.ndim < 2 or mats.shape[-1] != mats.shape[-2]:
        raise ValueError(f"need a stack of square matrices, not shape {mats.shape}")
    if not mats.size:
        return np.empty(mats.shape)
    # a finite stack can still have a norm past the float range
    with np.errstate(over="ignore"):
        norm = _finite("matrix norm", np.max(np.sum(np.abs(mats), axis=-1)), FloatRangeError)
    squarings = int(np.ceil(np.log2(norm / 0.5))) if norm > 0.5 else 0
    # the bits of a division by 2.0 ** squarings, with no power to overflow
    scaled = np.ldexp(mats, -squarings)
    # each scaled matrix has infinity-norm at most 1/2, so term k is at most
    # (1/2)**k / k!, under EXPM_TOL by k = 12: the loop always breaks
    acc = term = _identities(mats.shape)
    for k in range(1, 64):
        term = term @ scaled / k
        acc = acc + term
        if float(np.max(np.abs(term))) < EXPM_TOL:
            break
    # an overflow here is reported once, as FloatRangeError, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(squarings):
            acc = acc @ acc
    return _finite("matrix exponential", acc, FloatRangeError)


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

    n_paths has no cap: the work is paths x steps x words evaluated.  A
    batch past the Evaluator's sweep crossover (C10's words on 7 paths
    or more) draws its increments a chunk of steps at a time, so its
    memory does not grow with steps; a narrower one holds dim**2 formed
    letter arrays of batch_size x steps increments each.
    """
    _typed("problem", problem, FlowProblem)
    n_paths, batch_size = _count("n_paths", n_paths), _count("batch_size", batch_size)
    seed = _count("seed", seed, 0)
    orders = sorted({_count("order", k) for k in orders})
    if not orders:
        raise ValueError("need at least one order")
    kmax = orders[-1]
    taylor_orders = sorted(set(orders) | {k + 1 for k in orders})
    taylor_sym = matrix_ito_taylor(problem.dim, kmax + 1)
    log_sym = matrix_log(problem.dim, kmax)
    taylor = {k: taylor_sym.truncate_weight(k) for k in taylor_orders}
    logs = {k: log_sym.truncate_weight(k) for k in orders}

    err_log = {k: 0.0 for k in orders}
    gap_taylor = {k: 0.0 for k in orders}
    next_layer = {k: 0.0 for k in orders}
    words = _series_words([*taylor.values(), *logs.values()])
    trie = _prefix_trie(words)
    done = 0
    while done < n_paths:
        batch = min(batch_size, n_paths - done)
        paths = range(done, done + batch)
        if _sweeps(batch, trie):
            x_ref, ev = _streamed_batch(problem, seed, paths, trie, words)
            taylor_vals, log_vals = _series_flows(ev, batch, taylor, logs)
        else:
            dW = brownian_increments(problem, seed, paths)
            x_ref = flow_reference(problem, dW)
            taylor_vals, log_vals = _whole_series_flows(problem, dW, taylor, logs)
        for k in orders:
            with np.errstate(over="ignore", invalid="ignore"):
                err_log[k] += float(np.sum(_strong_errors(x_ref, log_vals[k])))
                gap_taylor[k] += float(np.sum(_strong_errors(taylor_vals[k], log_vals[k])))
                next_layer[k] += float(
                    np.sum(_strong_errors(taylor_vals[k + 1], taylor_vals[k]))
                )
        done += batch
    # finite flows far from the identity can still overflow their squared distances
    sums = [*err_log.values(), *gap_taylor.values(), *next_layer.values()]
    _finite("strong error", sums, FloatRangeError)

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
