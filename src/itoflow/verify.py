"""Self-contained verification suites behind the CLI's verify command.

Each suite returns a list of case reports shaped

    { "test", "max_abs_err", "tolerance", "pass", "seed",
      "grid_points", "paths" }

For exact symbolic checks the error is the number of differing
coefficients and the tolerance is zero; for pathwise checks it is a
floating-point residual.  A suite passes when every case does.
"""

from __future__ import annotations

import itertools
import random
from typing import Sequence

import numpy as np

from .evaluate import Evaluator
from .flows import FlowProblem, compare_flows
from .logseries import (
    descent_coefficient,
    exp_element,
    identity_series,
    log_identity_closed_form,
    log_identity_series,
    log_identity_subset_form,
    subset_alternating_sum,
)
from .paths import DriverSpec, discrete_bracket, make_grid, simulate_bundle
from .quasishuffle import qsh, qsh_via_surjections
from .surjections import (
    SurjElement,
    compositions_of,
    descent_sum_exact,
    descent_sum_within,
    diamond,
    diamond_reference,
    embed_composition,
    enumerate_grade,
)
from .words import BracketWord, Expansion


def _case(test, err, tol, seed=None, grid_points=None, paths=None) -> dict:
    return {
        "test": test,
        "max_abs_err": float(err),
        "tolerance": float(tol),
        "pass": bool(err <= tol),
        "seed": seed,
        "grid_points": grid_points,
        "paths": paths,
    }


def _mismatch(a, b) -> int:
    """Number of differing coefficients between two linear combinations."""
    return len(a - b)


def _random_words(rng: random.Random, count: int, max_weight: int, letters: int = 3):
    """Sampled bracket words, mixed singleton and bracket blocks."""
    out = []
    for _ in range(count):
        weight = rng.randint(1, max_weight)
        blocks = []
        left = weight
        while left:
            size = rng.randint(1, min(2, left))
            blocks.append([rng.randint(1, letters) for _ in range(size)])
            left -= size
        out.append(BracketWord(blocks))
    return out


def suite_algebra(grade: int = 4, seed: int = 0) -> list[dict]:
    rng = random.Random(seed)
    reports = []

    words = _random_words(rng, 8, max_weight=max(1, grade - 1))
    err = 0
    for u, v in itertools.combinations(words, 2):
        if u.weight + v.weight > 2 * grade:
            continue
        err += _mismatch(qsh(u, v), qsh(v, u))
    reports.append(_case("qsh commutative (sampled)", err, 0, seed=seed))

    err = 0
    for u, v, w in itertools.combinations(words[:5], 3):
        if u.weight + v.weight + w.weight > 2 * grade:
            continue
        err += _mismatch(qsh(qsh(u, v), w), qsh(u, qsh(v, w)))
    reports.append(_case("qsh associative (sampled)", err, 0, seed=seed))

    unit = BracketWord()
    err = _mismatch(qsh(unit, words[0]), Expansion.of_word(words[0]))
    err += _mismatch(qsh(words[0], unit), Expansion.of_word(words[0]))
    reports.append(_case("empty word is the unit", err, 0, seed=seed))

    err = 0
    for u, v in itertools.combinations(words, 2):
        if u.weight + v.weight > 2 * grade:
            continue
        err += _mismatch(qsh(u, v), qsh_via_surjections(u, v))
    reports.append(_case("recursive qsh == surjection-sum qsh", err, 0, seed=seed))

    surjs = [f for n in range(1, min(grade, 4) + 1) for f in enumerate_grade(n)]
    err = 0
    for _ in range(10):
        f, g, h = (rng.choice(surjs) for _ in range(3))
        if len(f) + len(g) + len(h) > 6:
            continue
        err += _mismatch(diamond(diamond(f, g), h), diamond(f, diamond(g, h)))
    reports.append(_case("diamond associative (sampled)", err, 0, seed=seed))

    err = 0
    for _ in range(6):
        f, g = rng.choice(surjs), rng.choice(surjs)
        if len(f) + len(g) > 5:
            continue
        err += _mismatch(diamond(f, g), diamond_reference(f, g))
    reports.append(_case("diamond == brute-force filter", err, 0, seed=seed))

    err = 0
    for n in range(1, min(grade, 5) + 1):
        for r in range(n):
            for I in itertools.combinations(range(1, n), r):
                acc = SurjElement.zero()
                for s in range(len(I) + 1):
                    for J in itertools.combinations(I, s):
                        sign = (-1) ** (len(I) - len(J))
                        acc = acc + descent_sum_within(n, J) * sign
                err += _mismatch(descent_sum_exact(n, I), acc)
    reports.append(_case("descent-set inclusion-exclusion, n <= 5", err, 0, seed=seed))

    return reports


def suite_theorem(grade: int = 4) -> list[dict]:
    reports = []
    series = log_identity_series(grade)
    closed = log_identity_closed_form(grade)
    reports.append(
        _case(f"power series log == closed form, grade {grade}", _mismatch(series, closed), 0)
    )
    subset_grade = min(grade, 5)
    reports.append(
        _case(
            f"subset form == closed form, grade {subset_grade}",
            _mismatch(log_identity_subset_form(subset_grade), closed.truncate_grade(subset_grade)),
            0,
        )
    )
    reports.append(
        _case(
            f"exp(log) == identity series, grade {grade}",
            _mismatch(exp_element(closed, grade), identity_series(grade)),
            0,
        )
    )
    err = 0
    for n in range(1, 9):
        for r in range(n):
            for I in itertools.combinations(range(1, n), r):
                got = subset_alternating_sum(n, I)
                err += got != descent_coefficient(n, len(I))
    reports.append(_case("alternating subset sum identity, n <= 8", err, 0))

    err = 0
    small = [c for t in range(1, 4) for c in compositions_of(t)]
    for c1 in small:
        for c2 in small:
            if sum(c1) + sum(c2) > 6:
                continue
            lhs = diamond(embed_composition(c1), embed_composition(c2))
            rhs = embed_composition(c1 + c2)
            err += _mismatch(lhs, rhs)
    reports.append(_case("composition embedding is multiplicative", err, 0))
    return reports


def suite_pathwise(seed: int = 42, steps: int = 4096, max_weight: int = 3) -> list[dict]:
    reports = []
    grid = make_grid(1.0, steps)
    specs = {
        1: DriverSpec.brownian(1.0),
        2: DriverSpec.poisson(2.0),
        3: DriverSpec.linear_drift(1.0),
    }
    bundle = simulate_bundle(specs, grid, seed=seed)
    gp = steps + 1

    x, y = bundle[1], bundle[2]
    br = discrete_bracket(x, y)
    dx, dy = x.increments(), y.increments()
    residual = x.values * y.values - np.concatenate(
        ([0.0], np.cumsum(x.values[:-1] * dy))
    ) - np.concatenate(([0.0], np.cumsum(y.values[:-1] * dx))) - br.values
    reports.append(
        _case("discrete product rule", np.max(np.abs(residual)), 1e-9, seed, gp, 1)
    )

    sym = np.max(np.abs(discrete_bracket(x, y).values - discrete_bracket(y, x).values))
    z = bundle[3]
    assoc = np.max(
        np.abs(
            discrete_bracket(discrete_bracket(x, y), z).values
            - discrete_bracket(x, discrete_bracket(y, z)).values
        )
    )
    reports.append(_case("bracket symmetry and associativity", max(sym, assoc), 1e-12, seed, gp, 1))

    rng = random.Random(seed)
    words = _random_words(rng, 10, max_weight=max_weight)
    ev = Evaluator.from_bundle(bundle)
    worst = 0.0
    for u, v in itertools.combinations(words, 2):
        lhs = float(ev(qsh(u, v)))
        rhs = float(ev.word_terminal(u)) * float(ev.word_terminal(v))
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    reports.append(
        _case("pathwise quasi-shuffle identity (sampled)", worst, 1e-9, seed, gp, 1)
    )

    lhs = float(ev.word_terminal(BracketWord.from_letters(1))) * float(
        ev.word_terminal(BracketWord.from_letters(2, 3))
    )
    rhs = float(ev(qsh(BracketWord.from_letters(1), BracketWord.from_letters(2, 3))))
    reports.append(
        _case("one-letter times two-letter product", abs(lhs - rhs) / max(1.0, abs(lhs)), 1e-9, seed, gp, 1)
    )

    jump_err = abs(float(ev.word_terminal(BracketWord([[2, 2, 2]]))) - bundle[2].terminal)
    reports.append(_case("triple self-bracket of a unit-jump path", jump_err, 0.0, seed, gp, 1))
    return reports


def suite_flow(
    seed: int = 2026,
    steps: int = 2048,
    paths: int = 128,
    orders: Sequence[int] = (1, 2, 3),
) -> list[dict]:
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.array([[0.5, 0.0], [1.0, -0.5]])
    problem = FlowProblem(dim=2, drift=a, diffusion=b, horizon=0.1, steps=steps)
    rep = compare_flows(problem, orders, paths, seed)
    errs = [rep["mean_strong_error_log"][str(k)] for k in rep["orders"]]
    mono = all(e1 > e2 for e1, e2 in zip(errs, errs[1:]))
    reports = [
        _case(
            "strong error decreases with order",
            0.0 if mono else 1.0,
            0.0,
            seed,
            steps + 1,
            paths,
        )
    ]
    for k in rep["orders"]:
        gap = rep["mean_gap_log_vs_taylor"][str(k)]
        yardstick = 10.0 * rep["mean_next_taylor_layer"][str(k)] + rep["expm_tolerance"]
        reports.append(
            _case(
                f"exp(log_{k}) matches taylor_{k} up to truncation",
                gap,
                yardstick,
                seed,
                steps + 1,
                paths,
            )
        )
    return reports


SUITES = {
    "algebra": suite_algebra,
    "theorem": suite_theorem,
    "pathwise": suite_pathwise,
    "flow": suite_flow,
}


def run_suite(name: str, **kwargs) -> tuple[bool, list[dict]]:
    try:
        fn = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}") from None
    reports = fn(**kwargs)
    return all(r["pass"] for r in reports), reports
