"""Flow-map logarithm templates and driver-specific vanishing rules."""

import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itoflow import (
    BracketWord,
    DriverAlphabet,
    Expansion,
    LogTerm,
    SurjElement,
    Surjection,
    apply_surjection,
    apply_vanishing_rules,
    enumerate_grade,
    linear_field_log,
    log_flow_terms,
    parse_word,
)
from itoflow import flowmaps, verify
from itoflow.logseries import descent_coefficient


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

    def test_qv_letter_of_a_non_primary_letter_is_refused(self):
        with pytest.raises(ValueError, match="3 is not a primary driver"):
            CONTINUOUS.qv_letter(3)


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

    def test_pretty_writes_a_coefficient_of_minus_one_as_a_sign(self):
        assert LogTerm(2, ((1, 2),), Fraction(-1)).pretty() == "-V_i V_j I_{[ij]}"

    def test_pretty_names_at_most_18_positions(self):
        singles = tuple((p,) for p in range(1, 19))
        assert LogTerm(18, singles, Fraction(1, 2)).pretty() == (
            "1/2 " + " ".join(f"V_{s}" for s in "ijklmnopqrstuvwxyz")
            + " I_{ijklmnopqrstuvwxyz}"
        )
        # a 19th position would reuse i: I_{[ii]jkl...z}
        paired = ((1, 19),) + tuple((p,) for p in range(2, 19))
        with pytest.raises(ValueError, match="at most 18 positions, not 19"):
            LogTerm(19, paired, Fraction(1)).pretty()


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

    @pytest.mark.parametrize("continuous", [True, False], ids=["continuous", "jumps"])
    @pytest.mark.parametrize("literal, letter", [("5", 5), ("[1,2,5]", 5), ("[1,2].7", 7)])
    def test_a_letter_outside_the_alphabet_is_refused(self, continuous, literal, letter):
        # [1,2,5] is a cross bracket, and [1,2].7 dies at its first block:
        # no rule that fires first may hide the letter, in either mode
        alphabet = DriverAlphabet(2, continuous=continuous)
        with pytest.raises(ValueError, match=f"letter {letter} outside alphabet of 4"):
            apply_vanishing_rules(Expansion.of(parse_word(literal)), alphabet)


def scalar_log(alphabet, order, letters=None, route=linear_field_log):
    """The 1x1 case of linear_field_log, or of another route such as its oracle
    verify._substituted_log, over a pool of driver letters (default: the
    primary drivers): a letter given n times gets the generator [[n]]."""
    pool = letters if letters is not None else range(1, alphabet.n_primary + 1)
    generators = {letter: [[n]] for letter, n in Counter(pool).items()}
    return route(alphabet, order, generators)[0][0]


class TestScalarLog:
    def test_order_two_single_driver(self):
        alph = DriverAlphabet(n_primary=1)
        e = scalar_log(alph, 2)
        # log = I_1 - 1/2 [1,1] -> - 1/2 I_{QV}; the two order-2 words with
        # distinct letters need a second driver, and (1)(1) cancels in pairs
        assert e[BracketWord([(1,)])] == 1
        assert e[BracketWord([(2,)])] == Fraction(-1, 2)  # QV letter of 1 is 2
        assert len(e) == 2

    def test_order_two_two_drivers(self):
        e = scalar_log(CONTINUOUS, 2)
        # cross terms: 1/2 (12) - 1/2 (21) on letters (i, j) and (j, i)
        assert e[BracketWord([(1,), (2,)])] == 0  # +1/2 from (12), -1/2 from (21)
        assert e[BracketWord([(3,)])] == Fraction(-1, 2)
        assert e[BracketWord([(4,)])] == Fraction(-1, 2)

    def test_only_the_drivers_given_appear(self):
        alph = DriverAlphabet(n_primary=3)
        e = scalar_log(alph, 1, letters=(2,))
        assert e == Expansion.of(BracketWord([(2,)]))


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
def test_the_scalar_case_equals_the_substitution_oracle(alphabet):
    # the full log element, then the rules, matches the continuous templates
    # too: they leave out fibers of three or more positions, and every block
    # of three or more letters has depth three or more, so the rules drop it
    for order in range(1, (4 if alphabet.n_primary == 3 else 5) + 1):
        for pool in (None, (1,), (1, 1), (2,), (1, 3)):  # an error, too, is the same one
            want = outcome(scalar_log, alphabet, order, pool, verify._substituted_log)
            assert outcome(scalar_log, alphabet, order, pool) == want


@pytest.mark.parametrize("continuous", [False, True], ids=["jumps", "continuous"])
def test_a_pool_letter_outside_the_alphabet_is_refused(continuous):
    # with jumps no vanishing rule reads the letter's depth, so only the
    # check before the merge sees it
    alphabet = DriverAlphabet(1, continuous=continuous, paired_qv=False)
    with pytest.raises(ValueError, match="letter 3 outside alphabet of 1"):
        scalar_log(alphabet, 2, (1, 3))


def test_a_repeated_pool_letter_counts_as_often_as_it_is_given():
    alphabet = DriverAlphabet(1, continuous=False)
    oracle = scalar_log(alphabet, 3, (1, 1), verify._substituted_log)
    assert scalar_log(alphabet, 3, (1, 1)) == oracle
    assert scalar_log(alphabet, 1, (1, 1)) == Expansion.of(BracketWord([(1,)]), 2)


class TestLinearFieldLog:
    ALPHABET = DriverAlphabet(2, continuous=False, cross_brackets_zero=False, paired_qv=False)

    def test_order_one_is_the_generators_times_their_letters(self):
        rows = linear_field_log(self.ALPHABET, 1, {1: [[1, 2], [0, 1]], 2: [[0, 1], [3, 0]]})
        z1, z2 = Expansion.of(BracketWord([(1,)])), Expansion.of(BracketWord([(2,)]))
        assert rows == ((z1, 2 * z1 + z2), (3 * z2, z1))

    def test_fraction_entries_stay_exact(self):
        # log of dX = X a dZ is a I_{1} - a^2/2 I_{[11]} to order 2; here a = 1/2
        ((e,),) = linear_field_log(self.ALPHABET, 2, {1: [[Fraction(1, 2)]]})
        half, bracket = Fraction(1, 2), BracketWord([(1, 1)])
        assert e == Expansion({BracketWord([(1,)]): half, bracket: -half * half / 2})

    @pytest.mark.parametrize(
        "generators, error, message",
        [
            ({1: [[0.5]]}, TypeError, "generator entry must be int or Fraction, not float"),
            ({1: [[True]]}, TypeError, "generator entry must be int or Fraction, not bool"),
            ({1: [[1, 0], [0]]}, ValueError, "square matrices of one size"),
            ({1: [[1]], 2: [[1, 0], [0, 1]]}, ValueError, "square matrices of one size"),
            ({}, ValueError, "square matrices of one size"),
            ({1: []}, ValueError, "dim must be >= 1, not 0"),
            ({3: [[1]]}, ValueError, "letter 3 outside alphabet of 2"),
            ({0: [[1]]}, ValueError, "letter must be >= 1"),
            ([[1]], TypeError, "generators must be Mapping"),
        ],
        ids=[
            "float", "bool", "ragged", "mixed", "empty", "0x0",
            "outside", "letter-0", "not-a-mapping",
        ],
    )
    def test_malformed_generators_are_refused(self, generators, error, message):
        with pytest.raises(error, match=message):
            linear_field_log(self.ALPHABET, 2, generators)


LINEAR_FIELD_SIZES = [(2, 2, 3), (2, 3, 3), (3, 2, 3), (2, 2, 4)]


@pytest.mark.parametrize("continuous", [False, True], ids=["jumps", "continuous"])
@pytest.mark.parametrize("dim, drivers, order", LINEAR_FIELD_SIZES)
def test_templates_give_the_log_of_non_commuting_linear_flows(dim, drivers, order, continuous):
    assert verify.check_linear_fields(dim, drivers, order, continuous) == 0


@pytest.mark.parametrize("seed", [1, 2])
def test_linear_fields_hold_for_other_generators(seed):
    assert verify.check_linear_fields(2, 2, 3, False, seed=seed) == 0


TEMPLATES = flowmaps._flow_log_element  # what linear_field_log reads, before any mutant


def test_linear_fields_catch_a_missing_template(monkeypatch):
    # the jump-mode templates without the three-point fibers of order 3
    def without_triples(alphabet, order):
        element = TEMPLATES(alphabet, order)
        return SurjElement((f, c) for f, c in element if max(map(f.count, f)) < 3)

    monkeypatch.setattr(flowmaps, "_flow_log_element", without_triples)
    assert verify.check_linear_fields(2, 2, 3, False) > 0


def test_linear_fields_catch_a_negated_arity_two_coefficient(monkeypatch):
    # the templates with the sign of one arity-2 coefficient flipped
    def negated(alphabet, order):
        element = TEMPLATES(alphabet, order)
        f, c = next((f, c) for f, c in element if len(f) == 2)
        return element - SurjElement([(f, 2 * c)])

    monkeypatch.setattr(flowmaps, "_flow_log_element", negated)
    assert verify.check_linear_fields(2, 2, 3, False) > 0


@st.composite
def linear_fields(draw):
    """An alphabet of 1-3 drivers under any of its flags, an order (at most 4,
    or 3 at dim 4) and generators of one dim 1-4 on some of its letters, the
    quadratic-variation letters too where they are named: int and Fraction
    entries, zero entries and whole zero generators among them."""
    dim = draw(st.integers(1, 4))
    order = draw(st.integers(1, 3 if dim == 4 else 4))
    alphabet = DriverAlphabet(draw(st.integers(1, 3)), *draw(st.tuples(*[st.booleans()] * 3)))
    entry = st.one_of(st.just(0), st.integers(-2, 2), st.fractions(-2, 2, max_denominator=3))
    matrix = st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=dim, max_size=dim)
    zero = st.just([[0] * dim for _ in range(dim)])
    letters = st.integers(1, alphabet.n_letters)
    generators = draw(st.dictionaries(letters, st.one_of(zero, matrix), min_size=1, max_size=4))
    return alphabet, order, generators


@given(linear_fields())
@settings(max_examples=100, deadline=None)
def test_linear_field_log_equals_the_substitution_oracle(case):
    assert linear_field_log(*case) == verify._substituted_log(*case)
