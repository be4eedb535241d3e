"""Self-contained verification suites behind the CLI's verify command.

Each suite returns a list of case reports shaped

    { "test", "max_abs_err", "tolerance", "pass", "seed",
      "grid_points", "paths" }

For exact symbolic checks the error is the number of differing
coefficients and the tolerance is zero; for pathwise checks it is a
floating-point residual.  A suite passes when every case does.

Each identity that the acceptance criteria also check is one check_*
function with its sizes as parameters: the suites call it at their own
defaults, which the CLI leaves to them, the criteria at larger sizes.
"""

from __future__ import annotations

import itertools
import random
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

from ._config import DEFAULT_WEIGHT_CAP, _count, caps, weight_cap
from .evaluate import Evaluator
from .flowmaps import DriverAlphabet, apply_vanishing_rules, log_flow_terms
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
from .matrixseries import linear_field_log, matrix_exp, matrix_ito_taylor, matrix_log
from .paths import (
    DriverSpec,
    PathBundle,
    SamplePath,
    discrete_bracket,
    make_grid,
    simulate_bundle,
)
from .quasishuffle import qsh, qsh_via_surjections
from .surjections import (
    SurjElement,
    apply_surjection,
    compositions_of,
    descent_sum_exact,
    descent_sum_within,
    diamond,
    diamond_reference,
    embed_composition,
    enumerate_grade,
)
from .words import BracketWord, Expansion, accumulate

PATHWISE_TOL = 1e-9  # relative residual allowed in a pathwise product identity
_PATHWISE_MAX_WEIGHT = 3  # word weight sampled by the pathwise quasi-shuffle case


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


def words_up_to(max_weight: int) -> dict[int, list[BracketWord]]:
    """All bracket words over the letters 1, 2, 3, grouped by weight."""
    sizes = range(1, max_weight + 1)
    blocks = {s: list(itertools.combinations_with_replacement((1, 2, 3), s)) for s in sizes}
    raw: dict[int, list[tuple]] = {0: [()]}
    for w in range(1, max_weight + 1):
        raw[w] = [p + (b,) for s in range(1, w + 1) for p in raw[w - s] for b in blocks[s]]
    return {w: [BracketWord(t) for t in ts] for w, ts in raw.items()}


def check_log_series(grades: Iterable[int]) -> int:
    """Coefficients where the power-series log differs from the closed form."""
    return sum(_mismatch(log_identity_series(g), log_identity_closed_form(g)) for g in grades)


def check_exp_log(grade: int, matrix_orders: Iterable[int] = ()) -> int:
    """Coefficients where exp(log) differs from the flow it is the log of: the
    identity series at the grade, and the dim-2 matrix flow at each matrix order."""
    err = _mismatch(exp_element(log_identity_closed_form(grade), grade), identity_series(grade))
    for k in matrix_orders:
        got, want = matrix_exp(matrix_log(2, k), k), matrix_ito_taylor(2, k)
        for got_row, want_row in zip(got.entries, want.entries):
            err += sum(map(_mismatch, got_row, want_row))
    return err


def check_linear_fields(
    dim: int, drivers: int, order: int, continuous: bool, seed: int = 0
) -> int:
    """Coefficients where the flow-log templates miss linear_field_log for the
    non-commuting linear fields V_i x = x A_i, A_i random integer matrices.
    Entry (p, q) sums each template over letter tuples times (A_{i_1} ...
    A_{i_n})_{pq}.  Cross brackets are kept; continuous mode drops deeper ones.
    """
    rng = random.Random(seed)
    gens = np.array([rng.randint(-3, 3) for _ in range(drivers * dim * dim)], dtype=object)
    gens = gens.reshape(drivers, dim, dim)
    alphabet = DriverAlphabet(drivers, continuous, cross_brackets_zero=False, paired_qv=False)
    want: list[dict] = [{} for _ in range(dim * dim)]  # entries in row-major order
    for t in log_flow_terms(alphabet, order):
        f = t.surjection()
        for tup in itertools.product(range(drivers), repeat=t.order):
            word = apply_surjection(f, BracketWord.from_letters(*(i + 1 for i in tup)))
            for pq, c in enumerate(reduce(np.matmul, [gens[i] for i in tup]).flat):
                accumulate(want[pq], word, t.coeff * c)
    got = linear_field_log(alphabet, order, {i + 1: g for i, g in enumerate(gens)})
    return sum(
        _mismatch(apply_vanishing_rules(Expansion._raw(w), alphabet), g)
        for w, g in zip(want, itertools.chain(*got))
    )


def check_qsh_routes(pairs: Iterable[tuple[BracketWord, BracketWord]]) -> tuple[int, int]:
    """Differing coefficients of qsh against the surjection-sum route, and the pair count."""
    err = count = 0
    for u, v in pairs:
        err += _mismatch(qsh(u, v), qsh_via_surjections(u, v))
        count += 1
    return err, count


def check_composition_embedding(max_part: int) -> tuple[int, int]:
    """Pairs of compositions of 1..max_part, totals summing to <= 6, where
    diamond(embed(c1), embed(c2)) != embed(c1 c2); and the pair count."""
    err = count = 0
    for t1, t2 in itertools.product(range(1, max_part + 1), repeat=2):
        if t1 + t2 > 6:
            continue
        for c1, c2 in itertools.product(compositions_of(t1), compositions_of(t2)):
            lhs = diamond(embed_composition(c1), embed_composition(c2))
            err += _mismatch(lhs, embed_composition(c1 + c2))
            count += 1
    return err, count


def check_subset_law() -> tuple[int, int]:
    """Subsets I of {1..n-1}, n <= 8, whose alternating sum misses the
    descent coefficient law at d = |I|, and the subset count."""
    err = count = 0
    with caps(grade=8):
        for n in range(1, 9):
            for r in range(n):
                for I in itertools.combinations(range(1, n), r):
                    err += subset_alternating_sum(n, I) != descent_coefficient(n, len(I))
                    count += 1
    return err, count


def pathwise_bundle(seed: int, steps: int) -> PathBundle:
    """Brownian (letter 1), rate-2 Poisson (2) and unit drift (3) on [0, 1]."""
    specs = {
        1: DriverSpec("brownian", sigma=1.0),
        2: DriverSpec("poisson", rate=2.0),
        3: DriverSpec("linear_drift", slope=1.0),
    }
    return simulate_bundle(specs, make_grid(1.0, steps), seed=seed)


def check_pathwise_qsh(
    ev: Evaluator, pairs: Iterable[tuple[BracketWord, BracketWord]]
) -> tuple[float, int]:
    """Worst relative residual of value(u) value(v) == value(qsh(u, v)), and the pair count."""
    worst, count = 0.0, 0
    for u, v in pairs:
        product = float(ev.word_terminal(u)) * float(ev.word_terminal(v))
        worst = max(worst, abs(float(ev(qsh(u, v))) - product) / max(1.0, abs(product)))
        count += 1
    return worst, count


def check_jump_bracket(path: SamplePath) -> tuple[float, float]:
    """|[X, X, X]_T - X_T| for a path X of unit jumps, and X_T, its jump count."""
    triple = Evaluator({1: path.increments()}).word_terminal(BracketWord([(1, 1, 1)]))
    return abs(float(triple) - path.terminal), path.terminal


def flow_problem(steps: int, dim: int = 2, horizon: float = 0.1) -> FlowProblem:
    """The flow study: non-commuting dim x dim drift and diffusion.

    The drift has ones on the superdiagonal; the diffusion has 0.5, -0.5,
    0.5, ... on the diagonal and ones on the subdiagonal.  At dim 2 they
    are [[0, 1], [0, 0]] and [[0.5, 0], [1, -0.5]].
    """
    dim = _count("dim", dim)
    a = np.eye(dim, k=1)
    b = np.eye(dim, k=-1) + np.diag(0.5 * (-1.0) ** np.arange(dim))
    return FlowProblem(dim=dim, drift=a, diffusion=b, horizon=horizon, steps=steps)


def check_flow(
    problem: FlowProblem, orders: Sequence[int], paths: int, seed: int
) -> tuple[list[float], list[tuple[int, float, float]]]:
    """Mean strong errors of exp(log_k), by order, and (k, gap, bound) per order.

    The gap is between the exp(log) and Taylor routes; its bound is the
    truncation effect, ten times the next Taylor layer, plus the
    matrix-exponential tolerance.
    """
    rep = compare_flows(problem, orders, paths, seed)
    errs, gaps = [], []
    for k in rep["orders"]:
        errs.append(rep["mean_strong_error_log"][str(k)])
        bound = 10.0 * rep["mean_next_taylor_layer"][str(k)] + rep["expm_tolerance"]
        gaps.append((k, rep["mean_gap_log_vs_taylor"][str(k)], bound))
    return errs, gaps


def suite_algebra(grade: int = 4, seed: int = 0) -> list[dict]:
    grade = _count("grade", grade)
    rng = random.Random(seed)
    reports = []

    # word weights stop at the weight cap, and at the default one under a
    # raised cap, so the sample's cost follows neither the grade nor the cap
    top = min(weight_cap(), DEFAULT_WEIGHT_CAP)
    words = _random_words(rng, 8, max_weight=min(max(1, grade - 1), top))
    # products are sampled up to that bound too, which 2 * grade passes
    # from grade 5 on
    max_weight = min(2 * grade, top)
    pairs = [
        (u, v) for u, v in itertools.combinations(words, 2) if u.weight + v.weight <= max_weight
    ]
    err = sum(_mismatch(qsh(u, v), qsh(v, u)) for u, v in pairs)
    reports.append(_case("qsh commutative (sampled)", err, 0, seed=seed))

    err = 0
    for u, v, w in itertools.combinations(words[:5], 3):
        if u.weight + v.weight + w.weight > max_weight:
            continue
        err += _mismatch(qsh(qsh(u, v), w), qsh(u, qsh(v, w)))
    reports.append(_case("qsh associative (sampled)", err, 0, seed=seed))

    unit = BracketWord()
    err = _mismatch(qsh(unit, words[0]), Expansion.of(words[0]))
    err += _mismatch(qsh(words[0], unit), Expansion.of(words[0]))
    reports.append(_case("empty word is the unit", err, 0, seed=seed))

    err, _ = check_qsh_routes(pairs)
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
    subset_grade = min(grade, 5)
    subset_err = _mismatch(
        log_identity_subset_form(subset_grade),
        log_identity_closed_form(grade).truncate(subset_grade),
    )
    return [
        _case(f"power series log == closed form, grade {grade}", check_log_series([grade]), 0),
        _case(f"subset form == closed form, grade {subset_grade}", subset_err, 0),
        _case(f"exp(log) == identity series, grade {grade}", check_exp_log(grade), 0),
        _case("alternating subset sum identity, n <= 8", check_subset_law()[0], 0),
        _case("composition embedding is multiplicative", check_composition_embedding(3)[0], 0),
    ]


def suite_pathwise(seed: int = 0, steps: int = 4096) -> list[dict]:
    reports = []
    bundle = pathwise_bundle(seed, steps)
    gp = steps + 1

    x, y = bundle[1], bundle[2]
    br = discrete_bracket(x, y)
    dx, dy = x.increments(), y.increments()
    residual = x.values * y.values - np.concatenate(
        ([0.0], np.cumsum(x.values[:-1] * dy))
    ) - np.concatenate(([0.0], np.cumsum(y.values[:-1] * dx))) - br.values
    reports.append(_case("discrete product rule", np.max(np.abs(residual)), 1e-9, seed, gp, 1))

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
    words = _random_words(rng, 10, max_weight=_PATHWISE_MAX_WEIGHT)
    ev = Evaluator.from_bundle(bundle)
    worst, _ = check_pathwise_qsh(ev, itertools.combinations(words, 2))
    reports.append(
        _case("pathwise quasi-shuffle identity (sampled)", worst, PATHWISE_TOL, seed, gp, 1)
    )

    pair = (BracketWord.from_letters(1), BracketWord.from_letters(2, 3))
    err, _ = check_pathwise_qsh(ev, [pair])
    reports.append(_case("one-letter times two-letter product", err, PATHWISE_TOL, seed, gp, 1))

    err, _ = check_jump_bracket(bundle[2])
    reports.append(_case("triple self-bracket of a unit-jump path", err, 0.0, seed, gp, 1))
    return reports


def suite_flow(seed: int = 0, steps: int = 4096, paths: int = 128) -> list[dict]:
    errs, gaps = check_flow(flow_problem(steps), (1, 2, 3), paths, seed)
    mono = all(e1 > e2 for e1, e2 in zip(errs, errs[1:]))
    where = (seed, steps + 1, paths)
    reports = [_case("strong error decreases with order", 0.0 if mono else 1.0, 0.0, *where)]
    for k, gap, bound in gaps:
        reports.append(_case(f"exp(log_{k}) matches taylor_{k} up to truncation", gap, bound, *where))
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
