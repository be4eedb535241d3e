"""Matrix-valued series: the flow expansion and its entry-wise logarithm."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itoflow import (
    BracketWord,
    Evaluator,
    Expansion,
    MatrixExpansion,
    apply_element,
    entry_letter,
    log_identity_closed_form,
    matrix_exp,
    matrix_ito_taylor,
    matrix_log,
    qsh,
    truncated_expm,
)
from itoflow import kernels
from itoflow.flows import _evaluate_matrix, brownian_increments, flow_from_log, flow_reference
from itoflow.matrixseries import _log_plan, _merges
from itoflow.verify import flow_problem


@pytest.fixture(scope="module")
def log7_and_plan():
    """The log element to arity 7 and its plan, built once for the module."""
    element = log_identity_closed_form(7)
    return element, _log_plan(element)


# seven blocks over three letters, so blocks repeat within a word and
# letters repeat within a block
SEVEN_BLOCKS = st.lists(
    st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3).map(
        lambda b: tuple(sorted(b))
    ),
    min_size=7,
    max_size=7,
)


@given(SEVEN_BLOCKS)
@settings(max_examples=6, deadline=None)
def test_log_picks_are_apply_to_blocks(log7_and_plan, blocks):
    """matrix_log's route, term by term: for every term f of arities 1 to
    7, its pick from the merges of the word's subsets is f applied to the
    word's blocks, and its numerator is f's."""
    element, plan = log7_and_plan
    for n, part in element._classes.items():
        w = tuple(blocks[:n])
        subsets, terms = plan[n]
        merged = _merges(w, subsets)
        assert [pick(merged) for pick, _ in terms] == [kernels.apply_to_blocks(f, w) for f in part]
        assert [c for _, c in terms] == list(part.values())


def word_free_log(dm, order):
    """The graded matrix log, to the given order, of the word-free Taylor
    layers of the entry increments dm, shaped (dim, dim, paths, cells):
    one (dim, dim) matrix per path, as (paths, dim, dim).

    The weight-m Taylor layer L_m is run up cell by cell with the
    left-point recursion L_m += L_{m-1} dM, m from order down to 1, so no
    word enters.  Evaluation on a grid is a character of the quasi-shuffle
    algebra, so matrix_log(dim, order) evaluates to the sum over k of
    (-1)^(k+1)/k times every product L_{m_1} ... L_{m_k} with
    m_1 + ... + m_k <= order, up to rounding.  It uses neither qsh nor the
    surjection log element.
    """
    dim, _, paths, _ = dm.shape
    layers = np.zeros((order + 1, paths, dim, dim))
    layers[0] = np.eye(dim)
    for step in np.moveaxis(dm, (-1, -2), (0, 1)):  # (paths, dim, dim) per cell
        for m in range(order, 0, -1):
            layers[m] += layers[m - 1] @ step
    log = np.zeros((paths, dim, dim))
    power = layers.copy()
    power[0] = 0.0  # the graded parts of (L_1 + ... + L_order)^k, k = 1 first
    for k in range(1, order + 1):
        log += (-1) ** (k + 1) / k * power.sum(axis=0)
        nxt = np.zeros_like(power)
        for g in range(order + 1):
            for m in range(1, g):
                nxt[g] += power[g - m] @ layers[m]
        power = nxt
    return log


def relative_gap(got, want):
    """Largest |got - want|, relative to max(1, the largest entry of want)."""
    return float(np.abs(got - want).max() / max(1.0, np.abs(want).max()))


def pathwise_log_gap(dim, order, seed, jumps):
    """The relative gap between matrix_log(dim, order) evaluated on random
    increments and word_free_log of the same increments.

    Each entry letter moves by its own increments, on 8 paths of 256
    cells: Gaussian with a drift, plus compound-Poisson jumps if jumps is
    true.
    """
    paths, cells = 8, 256
    rng = np.random.default_rng(seed)
    shape = (dim, dim, paths, cells)
    dm = rng.normal(0.5 / cells, cells**-0.5, size=shape)
    if jumps:  # rate 2 over the unit horizon, standard normal jump sizes
        dm += rng.normal(0.0, np.sqrt(rng.poisson(2.0 / cells, size=shape)))
    ev = Evaluator({entry_letter(a + 1, b + 1, dim): dm[a, b] for a in range(dim) for b in range(dim)})
    got = np.moveaxis([[ev(e) for e in row] for row in matrix_log(dim, order).entries], -1, 0)
    return relative_gap(got, word_free_log(dm, order))


def scaled_flow_errors(dim, order, seed, epsilons):
    """For each eps, the mean Frobenius distance between exp of
    matrix_log(dim, order), evaluated on the increments eps dM, and the
    Euler product of (I + eps dM) over the cells.

    Each entry letter moves by its own increments, on 16 paths of 8
    cells: a drift, a Brownian part and compound-Poisson jumps of rate 2
    over the unit horizon with standard normal sizes.
    """
    paths, cells = 16, 8
    rng = np.random.default_rng(seed)
    shape = (dim, dim, paths, cells)
    dm = 1.0 / cells + rng.normal(0.0, cells**-0.5, size=shape)
    dm += rng.normal(0.0, np.sqrt(rng.poisson(2.0 / cells, size=shape)))
    log = matrix_log(dim, order)
    errors = []
    for eps in epsilons:
        scaled = {entry_letter(a, b, dim): eps * dm[a - 1, b - 1] for a, b in _positions(dim)}
        ev = Evaluator(scaled)
        got = truncated_expm(_evaluate_matrix(log.entries, ev, "log series"))
        euler = np.broadcast_to(np.eye(dim), got.shape)
        for step in np.moveaxis(eps * dm, (-1, -2), (0, 1)):  # (paths, dim, dim) per cell
            euler = euler + euler @ step
        errors.append(float(np.linalg.norm(got - euler, axis=(1, 2)).mean()))
    return errors


def _positions(dim):
    return list(itertools.product(range(1, dim + 1), repeat=2))


class TestLetterEncoding:
    def test_row_major(self):
        assert entry_letter(1, 1, dim=2) == 1
        assert entry_letter(1, 2, dim=2) == 2
        assert entry_letter(2, 1, dim=2) == 3
        assert entry_letter(2, 2, dim=2) == 4

    def test_bounds(self):
        with pytest.raises(ValueError):
            entry_letter(0, 1, dim=2)
        with pytest.raises(ValueError):
            entry_letter(1, 3, dim=2)


class TestMatrixExpansion:
    def test_identity(self):
        m = MatrixExpansion.identity(2)
        assert m[1, 1] == Expansion.unit()
        assert m[1, 2] == Expansion.zero()

    def test_a_matrix_is_not_equal_to_a_scalar(self):
        assert (MatrixExpansion.identity(2) == 1) is False

    def test_arithmetic(self):
        m = MatrixExpansion.identity(2)
        two = m + m
        assert two[1, 1] == 2 * Expansion.unit()
        assert (two - m)[2, 2] == Expansion.unit()
        assert (3 * m)[1, 1] == 3 * Expansion.unit()

    def test_matmul_identity(self):
        m = matrix_ito_taylor(2, 2)
        ident = MatrixExpansion.identity(2)
        assert m.matmul(ident) == m
        assert ident.matmul(m) == m

    def test_matmul_entries_use_qsh(self):
        # (A B)_{13} for single-word entries is the quasi-shuffle of the words
        w1 = Expansion.of(BracketWord([(1,)]))
        w2 = Expansion.of(BracketWord([(2,)]))
        a = MatrixExpansion(1, ((w1,),))
        b = MatrixExpansion(1, ((w2,),))
        assert a.matmul(b)[1, 1] == qsh(BracketWord([(1,)]), BracketWord([(2,)]))

    def test_json_round_trip(self):
        m = matrix_ito_taylor(2, 2)
        assert MatrixExpansion.from_json_dict(m.to_json_dict()) == m


class TestTaylorSeries:
    def test_order_one_entries(self):
        m = matrix_ito_taylor(2, 1)
        # entry (i, j): unit if diagonal plus the single letter word for (i, j)
        for i in (1, 2):
            for j in (1, 2):
                e = m[i, j]
                letter_word = BracketWord([(entry_letter(i, j, dim=2),)])
                assert e[letter_word] == 1
                expected_len = 2 if i == j else 1
                assert len(e) == expected_len

    def test_order_two_entry_words_are_paths(self):
        m = matrix_ito_taylor(2, 2)
        # words of weight 2 in entry (1, 1) follow index paths 1 -> k -> 1
        e = m[1, 1].restrict(2)
        assert set(e.support()) == {
            BracketWord([(1,), (1,)]),  # (1,1)(1,1)
            BracketWord([(2,), (3,)]),  # (1,2)(2,1)
        }

    def test_layer_n_is_filed_under_weight_n(self):
        m = matrix_ito_taylor(2, 3)
        for i, j in [(1, 1), (1, 2), (2, 1), (2, 2)]:
            e = m[i, j]
            # the unit sits on the diagonal only; every layer n >= 1 reaches every entry
            assert e.grades() == list(range(0 if i == j else 1, 4))
            for n, part in e._classes.items():
                assert {len(w) for w in part} == {n}

    @pytest.mark.parametrize("dim", (1, 2, 3))
    @pytest.mark.parametrize("order", range(5))
    def test_buckets_are_the_index_chains(self, dim, order):
        # the definition, brute-forced: entry (i, j)'s weight-n bucket holds
        # the word M^{i i_1} M^{i_1 i_2} ... M^{i_(n-1) j} of every index chain,
        # each with numerator 1 over 1, and an empty bucket is absent
        m = matrix_ito_taylor(dim, order)
        for i, j in _positions(dim):
            want = {0: {(): 1}} if i == j else {}
            for n in range(1, order + 1):
                mids = itertools.product(range(1, dim + 1), repeat=n - 1)
                chains = [(i, *mid, j) for mid in mids]
                want[n] = {
                    tuple((entry_letter(a, b, dim),) for a, b in zip(c, c[1:])): 1 for c in chains
                }
            assert m[i, j]._den == 1
            assert m[i, j]._classes == want

    def test_grading_by_order(self):
        for order in (1, 2, 3):
            assert matrix_ito_taylor(2, order).max_weight() == order


def _block_mean(block, a, b, dim):
    """E[dI_block]/dt when dM_xy = A_xy dt + B_xy dW: A_xy for a one-letter
    block m_xy, the bracket B_xy B_zw for a two-letter block, 0 for any
    longer one."""
    entries = [divmod(letter - 1, dim) for letter in block]
    if len(entries) == 1:
        return a[entries[0][0]][entries[0][1]]
    if len(entries) == 2:
        (x, y), (z, w) = entries
        return b[x][y] * b[z][w]
    return 0


@pytest.mark.parametrize(("dim", "order"), [(2, 3), (3, 2)])
def test_second_moments_obey_the_linear_sde_law(dim, order):
    """The quasi-shuffle lift of X_ij X_kl, taken in expectation, is the
    second-moment equation of dX = X dM with dM = A dt + B dW: E[X (x) X]
    solves dY = Y G dt, G = A (x) I + I (x) A + B (x) B (Arnold 1974).  A
    word of n blocks has E[I_w] = c(w) t^n / n!, c(w) the product of its
    blocks' means, so the t^n coefficient of E[X_ij X_kl], times n!, is
    the sum of coeff(w) c(w) over the n-block words of qsh(T_ij, T_kl),
    and must be (G^n) at row (i, k), column (j, l).  Only words of
    weight <= n reach it, so T = matrix_ito_taylor(dim, order) gives it
    exactly for n <= order."""
    rng = random.Random(0)
    a, b = (
        [[Fraction(rng.randint(-3, 3), 5) for _ in range(dim)] for _ in range(dim)]
        for _ in range(2)
    )
    pairs = list(itertools.product(range(dim), repeat=2))
    eye = [[int(x == y) for y in range(dim)] for x in range(dim)]
    g = [
        [a[i][j] * eye[k][l] + eye[i][j] * a[k][l] + b[i][j] * b[k][l] for j, l in pairs]
        for i, k in pairs
    ]
    powers = [[[int(r == c) for c in range(len(pairs))] for r in range(len(pairs))]]
    for _ in range(order):
        last = powers[-1]
        powers.append([[sum(x * y for x, y in zip(row, col)) for col in zip(*g)] for row in last])
    t = matrix_ito_taylor(dim, order)
    mismatches = []
    for (r, (i, k)), (c, (j, l)) in itertools.product(enumerate(pairs), repeat=2):
        moments = [0] * (order + 1)
        for w, coeff in qsh(t[i + 1, j + 1], t[k + 1, l + 1]):
            if len(w) <= order:
                mean = 1
                for block in w:
                    mean *= _block_mean(block, a, b, dim)
                moments[len(w)] += coeff * mean
        mismatches += [(i, j, k, l, n) for n in range(order + 1) if moments[n] != powers[n][r][c]]
    assert mismatches == []


def _max_z(x, mean, second):
    """The largest |z| of the sample means of the (paths, d, d) stack x and
    of its X (x) X against the exact mean and second moment: each entry's
    gap over its standard error."""
    d = x.shape[-1]
    xx = np.einsum("pij,pkl->pikjl", x, x).reshape(len(x), d * d, d * d)
    z = [
        (sample.mean(axis=0) - exact) / (sample.std(axis=0, ddof=1) / np.sqrt(len(sample)))
        for sample, exact in ((x, mean), (xx, second))
    ]
    return max(float(np.max(np.abs(v))) for v in z)


@pytest.mark.parametrize(
    ("route", "paths", "batch"),
    # about 0.5 and 1.2 s on a 2-CPU host; with dW x 1.05 they read |z| 8.9 and 5.7
    [(flow_reference, 20000, 20000), (lambda p, dW: flow_from_log(p, 4, dW), 8000, 500)],
    ids=["euler", "exp-log4"],
)
def test_monte_carlo_moments_obey_the_euler_grid_law(route, paths, batch):
    """Each step of the Euler grid multiplies X by I + A dt + B dW with
    E[dW] = 0 and E[dW^2] = dt, so E[X] = (I + A dt)^N and
    E[X (x) X] = (I + G dt + A (x) A dt^2)^N, G = A (x) I + I (x) A + B (x) B
    (Arnold 1974 for the SDE).  The Euler route and exp(log_4) must meet
    both within five standard errors on every entry."""
    p = flow_problem(64)
    a, b, dt, d = p.drift, p.diffusion, p.dt, p.dim
    eye = np.eye(d)
    mean = np.linalg.matrix_power(eye + a * dt, p.steps)
    g = np.kron(a, eye) + np.kron(eye, a) + np.kron(b, b)
    second = np.linalg.matrix_power(np.eye(d * d) + g * dt + np.kron(a, a) * dt**2, p.steps)
    x = np.concatenate(
        [
            route(p, brownian_increments(p, 7, range(p0, p0 + batch)))
            for p0 in range(0, paths, batch)
        ]
    )
    assert _max_z(x, mean, second) <= 5


class TestMatrixLogExp:
    def test_log_has_no_constant_part(self):
        lg = matrix_log(2, 2)
        assert not lg.has_constant_part()

    def test_log_order_one_is_taylor_minus_identity(self):
        lg = matrix_log(2, 1)
        t = matrix_ito_taylor(2, 1)
        ident = MatrixExpansion.identity(2)
        assert lg == t - ident

    def test_log_diagonal_entry_order_two(self):
        lg = matrix_log(2, 2)
        e = lg[1, 1]
        assert e[BracketWord([(1,)])] == 1
        assert e[BracketWord([(1, 1)])] == Fraction(-1, 2)
        assert e[BracketWord([(2, 3)])] == Fraction(-1, 2)
        assert e[BracketWord([(2,), (3,)])] == Fraction(1, 2)
        assert e[BracketWord([(3,), (2,)])] == Fraction(-1, 2)
        # the squared diagonal letter cancels between (12) and (21)
        assert e[BracketWord([(1,), (1,)])] == 0

    @pytest.mark.parametrize("dim", (1, 2))
    @pytest.mark.parametrize("order", (1, 2, 3))
    def test_exp_undoes_log(self, dim, order):
        lg = matrix_log(dim, order)
        assert matrix_exp(lg, order) == matrix_ito_taylor(dim, order)

    def test_exp_rejects_constant_part(self):
        with pytest.raises(ValueError):
            matrix_exp(MatrixExpansion.identity(2), 2)

    def test_exp_refuses_a_non_matrix(self):
        with pytest.raises(TypeError, match="MatrixExpansion, not str"):
            matrix_exp("x", 2)

    @pytest.mark.parametrize("dim, order", [(2, 4), (3, 3), (2, 5)])
    def test_log_equals_the_apply_element_route(self, dim, order):
        # the oracle: one apply_element per Taylor word, with the arity-n
        # part of the log element acting on each length-n word
        element = log_identity_closed_form(order)
        by_arity = [element.restrict(n) for n in range(order + 1)]
        taylor = matrix_ito_taylor(dim, order)
        got = matrix_log(dim, order)
        for i in range(1, dim + 1):
            for j in range(1, dim + 1):
                want = Expansion.sum(
                    c * apply_element(by_arity[len(w)], w) for w, c in taylor[i, j]
                )
                assert got[i, j] == want, (i, j)
                assert all(type(c) is Fraction for _, c in got[i, j])

    @pytest.mark.parametrize("jumps", (False, True))
    @pytest.mark.parametrize("dim, order", [(2, 3), (2, 4), (3, 3)])
    def test_log_equals_the_word_free_pathwise_log(self, dim, order, jumps):
        # the oracle outside the exact layer: float matrix products of the
        # Taylor layers, run up by the left-point recursion, with no word
        assert pathwise_log_gap(dim, order, seed=order, jumps=jumps) <= 1e-12

    @pytest.mark.parametrize("dim", (2, 3))
    def test_exp_log_meets_the_euler_product_to_order_plus_one(self, dim):
        # for any increments scaled by eps, |exp(eval log_n) - Euler product|
        # = O(eps^(n+1)): each halving of eps divides the error by about
        # 2^(n+1); dropping log_3's 3-letter blocks leaves about 8 at n = 3
        epsilons = (0.2, 0.1, 0.05, 0.025)
        for order in range(1, 5):
            errors = scaled_flow_errors(dim, order, seed=0, epsilons=epsilons)
            ratios = [a / b for a, b in zip(errors, errors[1:])]
            assert min(ratios) >= 0.75 * 2 ** (order + 1), (order, ratios)

    def test_flow_study_log_stack_equals_the_word_free_log(self):
        # the log as compare_flows evaluates it, at the flow study's shape:
        # one Brownian motion drives every entry, affinely
        problem = flow_problem(2**12)
        paths = 16
        dW = brownian_increments(problem, 7, range(paths))
        a_dt, b = (x[:, :, None, None] for x in (problem.drift * problem.dt, problem.diffusion))
        dM = a_dt + b * dW  # entry (i, j) of each cell's dM at dM[i, j]
        ev = Evaluator({entry_letter(i + 1, j + 1, 2): dM[i, j] for i in (0, 1) for j in (0, 1)})
        got = _evaluate_matrix(matrix_log(2, 4).entries, ev, "log series")
        assert relative_gap(got, word_free_log(dM, 4)) <= 1e-12
