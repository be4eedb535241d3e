"""The three workloads: inputs made from a seed, one op, and its check.

Every op returns True when its result is correct.  Library functions are
looked up on their modules at call time, so span recorders rebound there
see the benchmark's own calls too.  No workload touches the size caps:
all of them fit the library defaults (weight 8, grade 6).
"""

from __future__ import annotations

import random
from itertools import combinations_with_replacement

import numpy as np
from itoflow import flows, logseries, matrixseries, paths, quasishuffle
from itoflow.evaluate import Evaluator
from itoflow.words import BracketWord


class Symbolic:
    """One op is one pass over a fixed list of exact identities."""

    name = "symbolic"
    # share of a pass's time that moves with the host's interpreter speed,
    # as measured (hostspeed.py; WORKLOADS.md, Noise)
    speed_exponent = 0.6
    traced_ops = 1
    # no cache to fill: each process adds an independent pass, and the
    # median of three passes sets aside one that met a slow spell of the host
    timed_processes = 3

    def __init__(self, seed: int):
        # exact algebra has no random input; the seed is accepted and unused
        self.matrix_cases = [(2, k) for k in range(1, 5)] + [(3, k) for k in range(1, 4)]

    def op(self, i: int) -> bool:
        ok = True
        for dim, order in self.matrix_cases:
            log = matrixseries.matrix_log(dim, order)
            ok &= matrixseries.matrix_exp(log, order) == matrixseries.matrix_ito_taylor(dim, order)
        for grade in range(1, 6):
            log = logseries.log_identity_closed_form(grade)
            ok &= logseries.exp_element(log, grade) == logseries.identity_series(grade)
        for grade in range(1, 7):
            ok &= logseries.log_identity_series(grade) == logseries.log_identity_closed_form(grade)
        return ok


class Flow:
    """One op is the C10 flow study on one fresh 64-path batch."""

    name = "flow"
    # numpy passes over 64 x 16385 arrays move less with interpreter speed
    speed_exponent = 0.5  # as measured (WORKLOADS.md, Noise)
    traced_ops = 2
    timed_processes = 2
    batch = 64  # C10's 250-path batch peaks near 5.3 GB; 64 leaves headroom

    def __init__(self, seed: int):
        self.seed = seed
        self.problem = flows.FlowProblem(
            dim=2,
            drift=np.array([[0.0, 1.0], [0.0, 0.0]]),
            diffusion=np.array([[0.5, 0.0], [1.0, -0.5]]),
            horizon=0.1,
            steps=2**14,
        )

    def op(self, i: int) -> bool:
        report = flows.compare_flows(
            self.problem,
            orders=(1, 2, 3),
            n_paths=self.batch,
            seed=self.seed * 10_000_000 + i,
            batch_size=self.batch,
        )
        errs = [report["mean_strong_error_log"][str(k)] for k in (1, 2, 3)]
        ok = errs[0] > errs[1] > errs[2]
        for k in (1, 2, 3):
            bound = 10.0 * report["mean_next_taylor_layer"][str(k)] + report["expm_tolerance"]
            ok &= report["mean_gap_log_vs_taylor"][str(k)] <= bound
        return ok


def words_up_to(max_weight: int, letters=(1, 2, 3)) -> dict[int, list[BracketWord]]:
    """All bracket words over the letters, grouped by weight."""
    blocks = {s: list(combinations_with_replacement(letters, s)) for s in range(1, max_weight + 1)}
    raw: dict[int, list[tuple]] = {0: [()]}
    for w in range(1, max_weight + 1):
        raw[w] = [p + (b,) for s in range(1, w + 1) for p in raw[w - s] for b in blocks[s]]
    return {w: [BracketWord(t) for t in ts] for w, ts in raw.items()}


class Identities:
    """One op checks qsh(u, v) both exactly and pathwise, for one word pair."""

    name = "identities"
    speed_exponent = 1.0  # word algebra on cache-resident data, in pure Python
    traced_ops = 6000
    # one timed loop: the terminal cache holds every word after about 6000
    # pairs, and a loop split over processes would pay that cold start again
    timed_processes = 1
    max_weight = 6  # 31,321 ordered pairs of nonempty words
    tolerance = 1e-9  # relative, as in C8

    def __init__(self, seed: int):
        by_weight = words_up_to(self.max_weight)
        self.pairs = [
            (u, v)
            for a in range(1, self.max_weight)
            for b in range(1, self.max_weight - a + 1)
            for u in by_weight[a]
            for v in by_weight[b]
        ]
        random.Random(seed).shuffle(self.pairs)
        bundle = paths.simulate_bundle(
            {
                1: paths.DriverSpec("brownian"),
                2: paths.DriverSpec("poisson", rate=2.0),
                3: paths.DriverSpec("linear_drift"),
            },
            paths.make_grid(1.0, 4096),
            seed=seed,
        )
        self.value = Evaluator.from_bundle(bundle)

    def op(self, i: int) -> bool:
        u, v = self.pairs[i % len(self.pairs)]
        product = quasishuffle.qsh(u, v)
        if product != quasishuffle.qsh_via_surjections(u, v):
            return False
        lhs = float(self.value(u) * self.value(v))
        rhs = float(self.value(product))
        return abs(lhs - rhs) <= self.tolerance * max(1.0, abs(lhs))


WORKLOADS = {w.name: w for w in (Symbolic, Flow, Identities)}
