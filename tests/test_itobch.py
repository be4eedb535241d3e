"""Flow-map logarithm templates and driver-specific vanishing rules."""

import itertools
from fractions import Fraction

import pytest

from itoflow import (
    BracketWord,
    DriverAlphabet,
    Expansion,
    LogTerm,
    Surjection,
    apply_surjection,
    apply_vanishing_rules,
    enumerate_grade,
    log_flow_expansion,
    log_flow_terms,
)
from itoflow import verify
from itoflow.logseries import descent_coefficient
from itoflow.words import accumulate


CONTINUOUS = DriverAlphabet(n_primary=2)
JUMPY = DriverAlphabet(
    n_primary=2, continuous=False, cross_brackets_zero=False, paired_qv=False
)


def template(values) -> LogTerm:
    """The jump-mode template whose partition is the fibers of values."""
    f = Surjection(values)
    terms = log_flow_terms(DriverAlphabet(1, continuous=False), len(f))
    (t,) = [t for t in terms if t.partition == f.fibers()]
    return t


class TestDriverAlphabet:
    def test_paired_qv_doubles_letters(self):
        assert CONTINUOUS.n_letters == 4
        assert CONTINUOUS.qv_letter(1) == 3
        assert CONTINUOUS.qv_letter(2) == 4

    def test_bracket_depth(self):
        assert CONTINUOUS.bracket_depth(1) == 1
        assert CONTINUOUS.bracket_depth(3) == 2  # a QV letter hides two drivers

    def test_jump_mode_keeps_letters(self):
        assert JUMPY.n_letters == 2


class TestLogTerm:
    def test_template_of_a_surjection(self):
        t = template((2, 1, 2))
        assert t.order == 3
        assert t.partition == ((2,), (1, 3))
        assert t.coeff == Fraction(-1, 6)

    def test_round_trips_surjection(self):
        for f in [(1,), (1, 2), (2, 1, 2), (1, 2, 1), (3, 1, 2)]:
            assert template(f).surjection() == f

    def test_instantiate(self):
        t = template((2, 1, 2))
        word = apply_surjection(t.surjection(), BracketWord.from_letters(1, 2, 3))
        assert word == BracketWord([(2,), (1, 3)])
        assert t.coeff == Fraction(-1, 6)

    def test_pretty(self):
        t = template((2, 1, 2))
        assert t.pretty() == "-1/6 V_i V_j V_k I_{j[ik]}"
        t1 = template((1,))
        assert t1.pretty() == "V_i I_{i}"

    def test_json_round_trip(self):
        t = template((1, 2, 1))
        assert LogTerm.from_json_dict(t.to_json_dict()) == t


class TestTermEnumeration:
    def test_continuous_counts(self):
        assert len(log_flow_terms(CONTINUOUS, 1)) == 1
        assert len(log_flow_terms(CONTINUOUS, 2)) == 1 + 3
        assert len(log_flow_terms(CONTINUOUS, 3)) == 1 + 3 + 12

    def test_jump_counts_include_deep_fibers(self):
        # without the continuity restriction order 3 has all 13 surjections
        terms = log_flow_terms(JUMPY, 3)
        order3 = [t for t in terms if t.order == 3]
        assert len(order3) == 13
        assert any(t.partition == ((1, 2, 3),) for t in order3)

    def test_continuous_omits_triple_fiber(self):
        terms = log_flow_terms(CONTINUOUS, 3)
        assert all(max(len(p) for p in t.partition) <= 2 for t in terms)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_each_order_holds_every_surjection_once_at_its_descent_law(self, n):
        terms = [t for t in log_flow_terms(DriverAlphabet(1, continuous=False), n) if t.order == n]
        assert [t.surjection() for t in terms] == enumerate_grade(n)
        for t in terms:
            assert t.coeff == descent_coefficient(n, t.surjection().descent_count())

    def test_coefficients_follow_descent_law(self):
        terms = log_flow_terms(CONTINUOUS, 3)
        by_surj = {t.surjection(): t.coeff for t in terms}
        assert by_surj[Surjection((1, 2, 3))] == Fraction(1, 3)
        assert by_surj[Surjection((2, 1, 2))] == Fraction(-1, 6)
        assert by_surj[Surjection((2, 1, 1))] == Fraction(1, 3)


class TestVanishingRules:
    def test_cross_bracket_kill(self):
        e = Expansion.of(BracketWord([(1, 2)]))
        assert apply_vanishing_rules(e, CONTINUOUS) == Expansion.zero()

    def test_qv_pair_rewrite(self):
        e = Expansion.of(BracketWord([(1, 1)]))
        assert apply_vanishing_rules(e, CONTINUOUS) == Expansion.of(
            BracketWord([(3,)])
        )

    def test_depth_kill(self):
        # triple bracket of a continuous driver vanishes
        e = Expansion.of(BracketWord([(1, 1, 1)]))
        assert apply_vanishing_rules(e, CONTINUOUS) == Expansion.zero()
        # bracket of a QV letter with its driver vanishes too (depth 3)
        e2 = Expansion.of(BracketWord([(1, 3)]))
        assert apply_vanishing_rules(e2, CONTINUOUS) == Expansion.zero()

    def test_jump_mode_keeps_everything(self):
        for blocks in [[(1, 2)], [(1, 1, 1)], [(1, 1)]]:
            e = Expansion.of(BracketWord(blocks))
            assert apply_vanishing_rules(e, JUMPY) == e

    def test_rules_act_per_block(self):
        e = Expansion.of(BracketWord([(2,), (1, 1), (1,)]))
        out = apply_vanishing_rules(e, CONTINUOUS)
        assert out == Expansion.of(BracketWord([(2,), (3,), (1,)]))


class TestLogFlowExpansion:
    def test_order_two_single_driver(self):
        alph = DriverAlphabet(n_primary=1)
        e = log_flow_expansion(alph, 2)
        # log = I_1 - 1/2 [1,1] -> - 1/2 I_{QV}; the two order-2 words with
        # distinct letters need a second driver, and (1)(1) cancels in pairs
        assert e[BracketWord([(1,)])] == 1
        assert e[BracketWord([(2,)])] == Fraction(-1, 2)  # QV letter of 1 is 2
        assert len(e) == 2

    def test_order_two_two_drivers(self):
        e = log_flow_expansion(CONTINUOUS, 2)
        # cross terms: 1/2 (12) - 1/2 (21) on letters (i, j) and (j, i)
        assert e[BracketWord([(1,), (2,)])] == 0  # +1/2 from (12), -1/2 from (21)
        assert e[BracketWord([(3,)])] == Fraction(-1, 2)
        assert e[BracketWord([(4,)])] == Fraction(-1, 2)

    def test_letters_argument_restricts_pool(self):
        alph = DriverAlphabet(n_primary=3)
        e = log_flow_expansion(alph, 1, letters=(2,))
        assert e == Expansion.of(BracketWord([(2,)]))


def template_route(alphabet, order, letters=None):
    """The oracle of log_flow_expansion: every log_flow_terms template over
    every letter tuple of the pool, by apply_surjection, then the rules."""
    terms = log_flow_terms(alphabet, order)
    pool = letters if letters is not None else range(1, alphabet.n_primary + 1)
    singletons = BracketWord.from_letters(*pool)
    data = {}
    for term in terms:
        f = term.surjection()
        for combo in itertools.product(singletons, repeat=term.order):
            accumulate(data, apply_surjection(f, BracketWord._wrap(combo)), term.coeff)
    return apply_vanishing_rules(Expansion._raw(data), alphabet)


def outcome(fn, *args):
    """fn(*args), or the type and message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as e:
        return type(e), str(e)


ALPHABETS = [
    DriverAlphabet(n, continuous=c, cross_brackets_zero=z, paired_qv=q)
    for n, c, z, q in itertools.product((1, 2, 3), *[(True, False)] * 3)
]


@pytest.mark.parametrize("alphabet", ALPHABETS, ids=repr)
def test_log_flow_expansion_equals_the_template_route(alphabet):
    # the full log element, then the rules, matches the continuous templates
    # too: they leave out fibers of three or more positions, and every block
    # of three or more letters has depth three or more, so the rules drop it
    for order in range(1, (4 if alphabet.n_primary == 3 else 5) + 1):
        for pool in (None, (2,), (1, 3)):  # an error, too, is the same one
            want = outcome(template_route, alphabet, order, pool)
            assert outcome(log_flow_expansion, alphabet, order, pool) == want


def test_a_repeated_pool_letter_counts_as_often_as_it_is_given():
    alphabet = DriverAlphabet(1, continuous=False)
    assert log_flow_expansion(alphabet, 3, (1, 1)) == template_route(alphabet, 3, (1, 1))
    assert log_flow_expansion(alphabet, 1, (1, 1)) == Expansion.of(BracketWord([(1,)]), 2)


LINEAR_FIELD_SIZES = [(2, 2, 3), (2, 3, 3), (3, 2, 3), (2, 2, 4)]


@pytest.mark.parametrize("continuous", [False, True], ids=["jumps", "continuous"])
@pytest.mark.parametrize("dim, drivers, order", LINEAR_FIELD_SIZES)
def test_templates_give_the_log_of_non_commuting_linear_flows(dim, drivers, order, continuous):
    assert verify.check_linear_fields(dim, drivers, order, continuous) == 0


@pytest.mark.parametrize("seed", [1, 2])
def test_linear_fields_hold_for_other_generators(seed):
    assert verify.check_linear_fields(2, 2, 3, False, seed=seed) == 0


def test_linear_fields_catch_a_missing_template(monkeypatch):
    # the jump-mode templates without the three-point fibers of order 3
    def without_triples(alphabet, order):
        return [t for t in log_flow_terms(alphabet, order) if max(map(len, t.partition)) < 3]

    monkeypatch.setattr(verify, "log_flow_terms", without_triples)
    assert verify.check_linear_fields(2, 2, 3, False) > 0
