"""End-to-end acceptance checks for the exact flow-logarithm toolkit.

Each test covers one acceptance criterion with explicit tolerances and
time budgets, and prints one ``[PASS]``/``[FAIL]`` line straight to the
terminal (bypassing pytest capture) so a full run ends with one status
line per criterion.  Where ``itoflow verify`` checks the same identity,
the criterion calls the same ``itoflow.verify`` check at its own sizes.

Criteria, in order:

 1. the grade-by-grade logarithm power series equals the closed
    descent-based formula (grades 1..5, exact);
 2. the order-3 continuous template table is reproduced exactly,
    including the CLI rendering and the pinned coefficient multiset;
 3. a single worked template has the pinned partition and coefficient;
 4. the exponential inverts the logarithm, both for the abstract
    identity series and for the matrix flow expansion;
 5. the recursive quasi-shuffle product agrees with the surjection-sum
    route on every word pair of total weight <= 6 over three letters;
 6. the composition embedding turns concatenation into the diamond
    product;
 7. the subset alternating sum collapses to the closed coefficient law;
 8. the quasi-shuffle identity holds pathwise on simulated
    Brownian/Poisson/drift data to near machine precision;
 9. jump brackets evaluate exactly (unit-jump counting) and continuous
    third-power brackets shrink under grid refinement;
10. matrix flow reconstruction converges order by order, with the
    log-signature and Taylor routes agreeing within tolerance.
"""

from __future__ import annotations

import gc
import itertools
import time
import warnings
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from itoflow import (
    BracketWord,
    DriverAlphabet,
    DriverSpec,
    Expansion,
    GridResolutionWarning,
    LogTerm,
    Surjection,
    enumerate_grade,
    log_flow_terms,
    make_grid,
    qsh,
    simulate,
)
from itoflow.cli import main as cli_main
from itoflow.evaluate import Evaluator
from itoflow.verify import (
    PATHWISE_TOL,
    check_composition_embedding,
    check_exp_log,
    check_flow,
    check_jump_bracket,
    check_log_series,
    check_pathwise_qsh,
    check_qsh_routes,
    check_subset_law,
    flow_problem,
    pathwise_bundle,
    words_up_to,
)

pytestmark = pytest.mark.acceptance

F = Fraction


@contextmanager
def criterion(capsys, name: str, budget: float | None = None):
    """Print exactly one [PASS]/[FAIL] line for the enclosed checks, which
    must finish within budget seconds when one is given."""
    info = {"detail": ""}
    t0 = time.perf_counter()
    try:
        yield info
        elapsed = time.perf_counter() - t0
        if budget is not None and elapsed >= budget:
            info["detail"] = f"took {elapsed:.2f}s, budget {budget:g}s"
            raise AssertionError(info["detail"])
    except BaseException:
        with capsys.disabled():
            print(f"[FAIL] {name}: {info['detail'] or 'check failed'}")
        raise
    with capsys.disabled():
        print(f"[PASS] {name}: {info['detail']} [{elapsed:.2f}s]")


def surjection_of_partition(partition: tuple[tuple[int, ...], ...]) -> Surjection:
    """Rebuild the value sequence from its tuple of fibers."""
    n = sum(len(fiber) for fiber in partition)
    values = [0] * n
    for v, fiber in enumerate(partition, start=1):
        for pos in fiber:
            values[pos - 1] = v
    return Surjection(tuple(values))


# --------------------------------------------------------------------------
# 1. power-series log == closed-form log
# --------------------------------------------------------------------------

def test_c01_log_series_matches_closed_form(capsys):
    with criterion(capsys, "C1 log power series == closed descent formula", budget=60.0) as info:
        assert check_log_series(range(1, 6)) == 0
        info["detail"] = "grades 1..5 identical term by term (exact rationals)"


# --------------------------------------------------------------------------
# 2. order-3 continuous template table + CLI golden output
# --------------------------------------------------------------------------

GOLDEN_ORDER3_CONTINUOUS = """\
V_i I_{i}
-1/2 V_i V_j I_{[ij]}
1/2 V_i V_j I_{ij}
-1/2 V_i V_j I_{ji}
-1/6 V_i V_j V_k I_{[ij]k}
-1/6 V_i V_j V_k I_{[ik]j}
-1/6 V_i V_j V_k I_{i[jk]}
1/3 V_i V_j V_k I_{[jk]i}
-1/6 V_i V_j V_k I_{j[ik]}
1/3 V_i V_j V_k I_{k[ij]}
1/3 V_i V_j V_k I_{ijk}
-1/6 V_i V_j V_k I_{ikj}
-1/6 V_i V_j V_k I_{jik}
-1/6 V_i V_j V_k I_{kij}
-1/6 V_i V_j V_k I_{jki}
1/3 V_i V_j V_k I_{kji}"""

# order-3 coefficients keyed by value sequence
ORDER3_COEFFS = {
    (1, 2, 3): F(1, 3),
    (3, 2, 1): F(1, 3),
    (2, 1, 1): F(1, 3),
    (2, 2, 1): F(1, 3),
    (1, 3, 2): F(-1, 6),
    (2, 1, 3): F(-1, 6),
    (2, 3, 1): F(-1, 6),
    (3, 1, 2): F(-1, 6),
    (1, 1, 2): F(-1, 6),
    (1, 2, 1): F(-1, 6),
    (1, 2, 2): F(-1, 6),
    (2, 1, 2): F(-1, 6),
}


def test_c02_order3_continuous_template_table(capsys):
    with criterion(capsys, "C2 order-3 continuous template table", budget=1.0) as info:
        terms = log_flow_terms(DriverAlphabet(3), 3)
        by_order: dict[int, list[LogTerm]] = {}
        for t in terms:
            by_order.setdefault(t.order, []).append(t)
        assert {k: len(v) for k, v in by_order.items()} == {1: 1, 2: 3, 3: 12}

        # order 1 and 2, exact
        (t1,) = by_order[1]
        assert (t1.partition, t1.coeff) == (((1,),), F(1))
        order2 = {t.partition: t.coeff for t in by_order[2]}
        assert order2 == {
            ((1,), (2,)): F(1, 2),
            ((2,), (1,)): F(-1, 2),
            ((1, 2),): F(-1, 2),
        }

        # order 3: every coefficient, keyed by the underlying value sequence
        got = {tuple(surjection_of_partition(t.partition)): t.coeff for t in by_order[3]}
        assert got == ORDER3_COEFFS

        # the order-3 support is exactly the fiber-size-<=2 maps of grade 3
        assert set(got) == {tuple(s) for s in enumerate_grade(3) if max(map(s.count, s)) <= 2}

        # pinned coefficient multisets: the full table, and the 15-entry
        # display that groups out one of the -1/6 slots (the (1,2,1) map)
        full = Counter(t.coeff for t in terms)
        assert full == Counter({F(1): 1, F(1, 2): 1, F(-1, 2): 2, F(1, 3): 4, F(-1, 6): 8})
        assert got[(1, 2, 1)] == F(-1, 6)
        displayed = full - Counter({F(-1, 6): 1})
        assert displayed == Counter({F(1): 1, F(1, 2): 1, F(-1, 2): 2, F(1, 3): 4, F(-1, 6): 7})

        # CLI rendering is byte-for-byte the golden block
        assert cli_main(["logflow", "--order", "3", "--continuous"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == GOLDEN_ORDER3_CONTINUOUS
        info["detail"] = "16 templates exact; CLI block matches golden; multiset {1, 1/2, -1/2 x2, 1/3 x4, -1/6 x8}"


# --------------------------------------------------------------------------
# 3. worked single-template coefficient
# --------------------------------------------------------------------------

def test_c03_single_template_coefficient(capsys):
    with criterion(capsys, "C3 worked template for value sequence (2,1,2)") as info:
        terms = log_flow_terms(DriverAlphabet(1, continuous=False), 3)
        (t,) = [t for t in terms if t.surjection() == Surjection((2, 1, 2))]
        assert t.partition == ((2,), (1, 3))
        assert t.coeff == F(-1, 6)
        assert t.pretty() == "-1/6 V_i V_j V_k I_{j[ik]}"
        info["detail"] = "partition ((2,),(1,3)), coefficient -1/6, exact"


# --------------------------------------------------------------------------
# 4. exponential inverts the logarithm (abstract + matrix)
# --------------------------------------------------------------------------

def test_c04_exp_inverts_log(capsys):
    with criterion(capsys, "C4 exponential inverts logarithm", budget=300.0) as info:
        assert check_exp_log(5, matrix_orders=range(1, 5)) == 0
        info["detail"] = "identity series grade 5 and dim-2 matrix orders 1..4, exact"


# --------------------------------------------------------------------------
# 5. recursive quasi-shuffle == surjection-sum route
# --------------------------------------------------------------------------

def test_c05_quasi_shuffle_equals_surjection_route(capsys):
    with criterion(capsys, "C5 quasi-shuffle == surjection route") as info:
        by_weight = words_up_to(5)
        err, pairs = check_qsh_routes(
            (u, v)
            for (wu, us), (wv, vs) in itertools.product(by_weight.items(), repeat=2)
            if wu + wv <= 6
            for u in us
            for v in vs
        )
        assert err == 0

        # two two-letter words with distinct letters multiply into the
        # 13 interleave-or-merge terms, each with coefficient one
        prod = qsh(BracketWord([(1,), (2,)]), BracketWord([(3,), (4,)]))
        assert len(prod) == 13
        assert all(c == 1 for _, c in prod)

        info["detail"] = f"{pairs} ordered word pairs (total weight <= 6) agree; 13-term product confirmed"


# --------------------------------------------------------------------------
# 6. composition embedding is multiplicative
# --------------------------------------------------------------------------

def test_c06_composition_embedding_multiplicative(capsys):
    with criterion(capsys, "C6 composition embedding multiplicative") as info:
        err, pairs = check_composition_embedding(max_part=5)
        assert err == 0
        info["detail"] = f"{pairs} composition pairs (total <= 6): embed(concat) == diamond of embeds"


# --------------------------------------------------------------------------
# 7. subset alternating sum collapses to the closed law
# --------------------------------------------------------------------------

def test_c07_subset_alternating_sum_law(capsys):
    with criterion(capsys, "C7 subset alternating sum == closed coefficient law") as info:
        err, checked = check_subset_law()
        assert err == 0
        info["detail"] = f"{checked} subsets through n=8, exact"


# --------------------------------------------------------------------------
# 8. pathwise product identity on simulated data
# --------------------------------------------------------------------------

def test_c08_pathwise_product_identity(capsys):
    with criterion(capsys, "C8 pathwise quasi-shuffle identity", budget=30.0) as info:
        ev = Evaluator.from_bundle(pathwise_bundle(seed=20260818, steps=4096))
        words = [w for wt, ws in words_up_to(3).items() if wt > 0 for w in ws]
        assert len(words) == 91
        worst, pairs = check_pathwise_qsh(ev, itertools.product(words, repeat=2))
        assert worst <= PATHWISE_TOL

        # five-term identity: value(B) * value(int C dD) pathwise
        u = BracketWord([(1,)])
        v = BracketWord([(2,), (3,)])
        five = (
            Expansion.of(BracketWord([(1,), (2,), (3,)]))
            + Expansion.of(BracketWord([(2,), (1,), (3,)]))
            + Expansion.of(BracketWord([(2,), (3,), (1,)]))
            + Expansion.of(BracketWord([(1, 2), (3,)]))
            + Expansion.of(BracketWord([(2,), (1, 3)]))
        )
        assert qsh(u, v) == five
        lhs = float(ev.word_terminal(u) * ev.word_terminal(v))
        rhs = float(ev(five))
        five_rel = abs(lhs - rhs) / max(1.0, abs(lhs))
        assert five_rel <= PATHWISE_TOL

        info["detail"] = (
            f"worst rel err {worst:.2e} over {pairs} pairs (tol {PATHWISE_TOL:.0e}); "
            f"five-term identity rel err {five_rel:.2e}"
        )


# --------------------------------------------------------------------------
# 9. jump brackets exact; continuous third powers shrink under refinement
# --------------------------------------------------------------------------

def test_c09_jump_and_refinement_behavior(capsys):
    with criterion(capsys, "C9 jump bracket exact + refinement decay") as info:
        triple = BracketWord([(1, 1, 1)])

        # unit-rate Poisson on a grid that resolves every jump: the
        # third-power bracket counts the jumps, exactly
        grid = make_grid(1.0, 4096)
        with warnings.catch_warnings():
            warnings.simplefilter("error", GridResolutionWarning)
            pois = simulate(DriverSpec("poisson", rate=1.0), grid, seed=3)
        err, n_jumps = check_jump_bracket(pois)
        assert n_jumps >= 2.0, "seed must give a path with several jumps"
        assert err == 0.0  # exact, tolerance zero

        # Brownian: mean |third-power bracket| over 128 paths must shrink
        # at least 2x when the grid is refined 4x
        means = {}
        for steps in (1024, 4096):
            g = make_grid(1.0, steps)
            inc = np.stack(
                [
                    simulate(DriverSpec("brownian"), g, seed=99, path_index=i).increments()
                    for i in range(128)
                ]
            )
            vals = Evaluator({1: inc}).word_terminal(triple)
            means[steps] = float(np.mean(np.abs(vals)))
        ratio = means[1024] / means[4096]
        assert ratio >= 2.0

        info["detail"] = (
            f"triple jump bracket == N_T = {n_jumps:g} exactly; "
            f"Brownian mean shrinks {ratio:.2f}x under 4x refinement (>= 2x)"
        )


# --------------------------------------------------------------------------
# 10. matrix flow convergence and route agreement
# --------------------------------------------------------------------------

def test_c10_matrix_flow_convergence(capsys):
    gc.collect()  # drop garbage left by earlier tests before the timed run
    with criterion(capsys, "C10 matrix flow convergence", budget=600.0) as info:
        problem = flow_problem(steps=2**14)
        # drift and diffusion must not commute, or orders collapse
        a, b = problem.drift, problem.diffusion
        assert not np.allclose(a @ b, b @ a)

        errs, gaps = check_flow(problem, orders=(1, 2, 3), paths=1000, seed=7)
        assert errs[0] > errs[1] > errs[2], f"errors not strictly decreasing: {errs}"

        # the log-signature and Taylor routes agree up to truncation
        # effects (bounded by the next Taylor layer) plus the matrix-exp
        # evaluation tolerance
        for k, gap, bound in gaps:
            assert gap <= bound, f"order {k}: gap {gap:.3e} exceeds {bound:.3e}"

        info["detail"] = (
            f"strong errors {errs[0]:.2e} > {errs[1]:.2e} > {errs[2]:.2e}; "
            "log vs Taylor gaps within truncation + expm tolerance"
        )
