"""Surjection algebra: packing, descents, the diamond product, embeddings."""

import re
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itoflow import (
    BracketWord,
    CapExceeded,
    Composition,
    SurjElement,
    Surjection,
    apply_element,
    apply_surjection,
    caps,
    compositions_of,
    descent_sum_exact,
    descent_sum_within,
    diamond,
    embed_composition,
    enumerate_grade,
    enumerate_surjections,
    pack,
    parse_surjection,
)
from itoflow import kernels
from itoflow.flowmaps import DriverAlphabet, log_flow_terms
from itoflow.logseries import log_identity_closed_form
from itoflow import surjections as surjections_module
from itoflow.surjections import diamond_reference

# numbers of surjections [n] -> [k]: k! * S(n, k) (Stirling second kind)
STIRLING_TIMES_FACTORIAL = {
    (1, 1): 1,
    (2, 1): 1, (2, 2): 2,
    (3, 1): 1, (3, 2): 6, (3, 3): 6,
    (4, 1): 1, (4, 2): 14, (4, 3): 36, (4, 4): 24,
}
# total surjections of grade n (ordered-set-partition counts)
FUBINI = [1, 1, 3, 13, 75, 541, 4683]


def surjection_strategy(max_n=4):
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        k = draw(st.integers(min_value=1, max_value=n))
        fs = enumerate_surjections(n, k)
        return fs[draw(st.integers(min_value=0, max_value=len(fs) - 1))]

    return st.composite(build)()


small_surjs = surjection_strategy(max_n=3)


@st.composite
def wide_surjections(draw, max_onto=12):
    """Surjections onto up to max_onto values, so both str forms occur."""
    k = draw(st.integers(min_value=0, max_value=max_onto))
    extra = draw(st.lists(st.integers(min_value=1, max_value=k), max_size=3)) if k else []
    return Surjection(draw(st.permutations(list(range(1, k + 1)) + extra)))


coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
# multi-term elements whose surjections differ in grade, unit included
elements = st.lists(
    st.tuples(st.one_of(st.just(Surjection()), small_surjs), coeffs),
    min_size=1,
    max_size=4,
).map(SurjElement)


class TestSurjection:
    def test_validation(self):
        with pytest.raises(ValueError):
            Surjection((1, 3))  # gap: not onto
        with pytest.raises(ValueError):
            Surjection((0, 1))
        assert Surjection(()) == ()

    def test_identity(self):
        assert Surjection.identity(3) == (1, 2, 3)
        assert Surjection.identity(0) == ()

    def test_grade_and_onto(self):
        f = Surjection((2, 1, 2))
        assert len(f) == 3
        assert f.onto == 2

    def test_fibers_in_target_order(self):
        f = Surjection((2, 1, 2))
        assert f.fibers() == ((2,), (1, 3))

    def test_descents_count_ties(self):
        assert Surjection((1, 1, 2)).descent_set() == (1,)
        assert Surjection((2, 1, 2)).descent_set() == (1,)
        assert Surjection((3, 2, 1)).descent_count() == 2
        assert Surjection((1, 2, 3)).descent_count() == 0

    @given(st.lists(st.integers(1, 6), max_size=9))
    def test_descents_are_their_definition(self, values):
        f = pack(values)
        want = tuple(i for i in range(1, len(f)) if f[i - 1] >= f[i])
        assert f.descent_set() == kernels.descent_set(list(f)) == want
        assert f.descent_count() == len(want)

    def test_pack(self):
        assert pack((3, 5, 3)) == Surjection((1, 2, 1))
        assert pack((7,)) == Surjection((1,))
        assert pack(()) == Surjection(())

    def test_str_and_parse_round_trip(self):
        for f in enumerate_grade(3):
            assert parse_surjection(str(Surjection(f))) == f
        assert str(Surjection(())) == "()"
        assert parse_surjection("()") == ()

    def test_rejects_non_integer_values(self):
        with pytest.raises(ValueError):
            Surjection([2.9, 1])  # would truncate to (2, 1)
        with pytest.raises(ValueError):
            Surjection([True])  # bool is not a value
        with pytest.raises(ValueError):
            Surjection(["1"])

    def test_pretty_of_a_comma_form_has_one_pair_of_parentheses(self):
        f = Surjection(range(1, 11))
        assert SurjElement.of(f).pretty() == "(1,2,3,4,5,6,7,8,9,10)"
        assert parse_surjection(SurjElement.of(f).pretty()) == f
        assert parse_surjection("(212)") == (2, 1, 2)

    @pytest.mark.parametrize(
        "text, bad", [("١٢", "١"), ("(1,²)", "²"), ("(1,,2)", ""), ("(1,+2)", "+2"), ("102", "0")]
    )
    def test_parse_reads_ascii_digits_only(self, text, bad):
        with pytest.raises(ValueError, match=re.escape(f"cannot parse surjection from {text!r}: bad value {bad!r}")):
            parse_surjection(text)

    def test_parse_keeps_spaces_around_comma_list_values(self):
        assert parse_surjection("(2, 1, 2)") == (2, 1, 2)

    @pytest.mark.parametrize("text", [5, None, b"12", (1, 2)])
    def test_parse_refuses_a_non_string(self, text):
        with pytest.raises(TypeError, match="surjection literal must be str"):
            parse_surjection(text)

    @given(wide_surjections())
    @settings(max_examples=80, deadline=None)
    def test_pretty_parse_round_trip(self, f):
        assert parse_surjection(SurjElement.of(f).pretty()) == f
        assert parse_surjection(str(f)) == f


class TestEnumeration:
    @pytest.mark.parametrize(("n", "k"), sorted(STIRLING_TIMES_FACTORIAL))
    def test_counts(self, n, k):
        assert len(enumerate_surjections(n, k)) == STIRLING_TIMES_FACTORIAL[n, k]

    @pytest.mark.parametrize("n", range(1, 6))
    def test_grade_totals_are_fubini(self, n):
        assert len(enumerate_grade(n)) == FUBINI[n]

    def test_lexicographic_and_distinct(self):
        fs = enumerate_surjections(4, 2)
        assert fs == sorted(set(fs))

    def test_the_empty_map_is_the_one_surjection_of_grade_0(self):
        assert enumerate_surjections(0, 0) == [Surjection()]

    @pytest.mark.parametrize(("n", "k"), [(2, 3), (2, 0), (0, 1)])
    def test_a_target_outside_1_to_n_is_refused(self, n, k):
        with pytest.raises(ValueError, match=rf"^need 1 <= k <= n, got n={n}, k={k}$"):
            enumerate_surjections(n, k)

    def test_grade_bounds_are_checked(self):
        with pytest.raises(ValueError, match="n must be >= 0, not -2"):
            enumerate_grade(-2)

    @pytest.mark.parametrize(
        "enumerate_, args",
        [(enumerate_grade, (4,)), (enumerate_surjections, (4, 2)), (compositions_of, (4,))],
    )
    def test_enumerators_are_capped(self, enumerate_, args):
        with caps(grade=3):
            with pytest.raises(CapExceeded, match="grade 4 exceeds cap 3"):
                enumerate_(*args)
            with pytest.raises(CapExceeded):
                enumerate_(10**30, *args[1:])
        with caps(grade=4):
            assert enumerate_(*args)


class TestGradeTable:
    @pytest.mark.parametrize("n", range(7))
    def test_table_equals_a_fresh_enumeration(self, n):
        """One table per arity, in (k, lex) order; enumerate_grade hands
        out its entries as Surjections."""
        surjs, descents = kernels.grade_table(n)
        every = [f for k in range(n + 1) for f in kernels.surjections(n, k)]
        assert list(surjs) == every  # (k, lex) order
        assert descents == tuple(map(kernels.descent_count, every))
        assert enumerate_grade(n) == every
        assert all(type(f) is Surjection for f in enumerate_grade(n))

    def test_changing_the_returned_list_leaves_the_next_call_unchanged(self):
        first = enumerate_grade(4)
        expected = list(first)
        first.reverse()
        first.append(Surjection((1,)))
        assert enumerate_grade(4) == expected
        assert enumerate_grade(4) is not enumerate_grade(4)

    def test_a_lowered_cap_raises_on_a_warm_table(self):
        alphabet = DriverAlphabet(1, continuous=False)
        calls = [
            lambda: enumerate_grade(4),
            lambda: log_identity_closed_form(4),
            lambda: log_flow_terms(alphabet, 4),
        ]
        warm = [call() for call in calls]
        assert kernels.grade_table.kept.cache_info().currsize
        with caps(grade=3):
            for call in calls:
                with pytest.raises(CapExceeded, match="grade 4 exceeds cap 3"):
                    call()
        assert [call() for call in calls] == warm

    def test_the_memo_is_bounded(self):
        """At most 8 tables, and only arities within the default grade cap."""
        assert kernels.grade_table.kept.cache_info().maxsize == 8
        before = kernels.grade_table.kept.cache_info()
        with caps(grade=7):
            surjs, descents = kernels.grade_table(7)
            assert enumerate_grade(7) == list(surjs)
        assert len(descents) == sum(len(kernels.surjections(7, k)) for k in range(8))
        assert kernels.grade_table.kept.cache_info() == before

    def test_one_table_per_arity(self):
        """The log element and both template modes read the same tables."""
        kernels.grade_table.kept.cache_clear()
        log_identity_closed_form(6)
        log_flow_terms(DriverAlphabet(1), 6)
        log_flow_terms(DriverAlphabet(1, continuous=False), 6)
        enumerate_grade(6)
        assert kernels.grade_table.kept.cache_info().currsize == 6

    def test_filling_the_table_calls_no_exported_kernel(self, monkeypatch):
        """So a traced run makes the same kernel calls on a cold table as
        on a warm one."""
        expected = [kernels.grade_table(n) for n in range(6)]

        def refuse(*args):
            raise AssertionError("exported kernel called")

        for name in ("surjections", "descent_count"):
            monkeypatch.setattr(kernels, name, refuse)
        monkeypatch.setattr(surjections_module, "_enumerate", refuse)
        monkeypatch.setattr(surjections_module, "_descent_count", refuse)
        kernels.grade_table.kept.cache_clear()
        assert [kernels.grade_table(n) for n in range(6)] == expected


@lru_cache(maxsize=64)
@lru_cache(maxsize=None)
def onto_maps(n, k):
    """Every map [n] -> [k] that is onto [k], from all k**n maps, sorted.

    No map from n points is onto more than n values, so k > n skips the
    filter and gives nothing.
    """
    onto = set(range(1, k + 1))
    return sorted(f for f in product(range(1, k + 1), repeat=n if k <= n else 0) if set(f) == onto)


@pytest.mark.parametrize(("n", "k"), [(n, k) for n in range(8) for k in range(n + 2)])
def test_kernel_surjections_match_brute_force(n, k):
    """Includes k > n and k = 0, which the public enumerators refuse before
    reaching the kernel."""
    assert kernels.surjections(n, k) == onto_maps(n, k)


# every arity up to 7 and every k up to arity + 1, in both driver modes
TEMPLATE_GRID = [(n, k) for n in range(1, 8) for k in range(n + 2)]
MODES = pytest.mark.parametrize("continuous", [True, False], ids=["continuous", "jumps"])


@lru_cache(maxsize=None)
def _order_templates(n, continuous):
    """The order-n templates of log_flow_terms, in table order."""
    with caps(grade=7):
        terms = log_flow_terms(DriverAlphabet(1, continuous=continuous), n)
    return tuple(t for t in terms if t.order == n)


def _continuous_templates(n):
    """The surjections of the order-n continuous templates, in table order."""
    return [t.surjection() for t in _order_templates(n, True)]


class TestContinuousTemplates:
    """flowmaps._flow_log_element, which log_flow_terms reads, is the one
    home of the continuous-driver rule: a surjection survives when each of
    its fibers holds at most two positions.  With jumps every surjection
    survives."""

    @MODES
    @pytest.mark.parametrize(("n", "k"), TEMPLATE_GRID)
    def test_match_brute_force(self, n, k, continuous):
        bound = 2 if continuous else n
        expected = [f for f in onto_maps(n, k) if all(f.count(v) <= bound for v in f)]
        onto_k = [t.surjection() for t in _order_templates(n, continuous) if len(t.partition) == k]
        assert onto_k == expected

    @MODES
    @pytest.mark.parametrize(("n", "k"), TEMPLATE_GRID)
    def test_coefficients_are_the_descent_law(self, n, k, continuous):
        """(-1)^d / (n * binomial(n - 1, d)), d the positions i with
        f(i) >= f(i + 1), counted here from the values themselves."""
        for t in _order_templates(n, continuous):
            if len(t.partition) == k:
                f = t.surjection()
                d = sum(a >= b for a, b in zip(f, f[1:]))
                assert t.coeff == Fraction((-1) ** d, n * comb(n - 1, d))

    def test_bounded_fiber_counts(self):
        # pairings of {1,2,3,4} into two ordered fibers of size 2
        assert sum(f.onto == 2 for f in _continuous_templates(4)) == 6
        # arity 3: 6 bijections and 6 maps with one pair
        assert len(_continuous_templates(3)) == 12
        assert len(_continuous_templates(2)) == 3


def test_diamond_kernel_matches_brute_force():
    """Every (f, g) of arity sum <= 6, empty operands included: the kernel's
    terms are distinct and are exactly the arity-(n+m) surjections whose two
    blocks pack to f and g; the per-shape plan memo stays bounded."""
    kernels.diamond_plan.kept.cache_clear()
    for total in range(7):
        for n in range(total + 1):
            m = total - n
            expected = {}
            for h in enumerate_grade(total):
                expected.setdefault((pack(h[:n]), pack(h[n:])), set()).add(h)
            for f in enumerate_grade(n):
                for g in enumerate_grade(m):
                    terms = kernels.diamond_words(f, g)
                    assert len(set(terms)) == len(terms), (f, g)
                    assert set(terms) == expected[f, g], (f, g)
                    info = kernels.diamond_plan.kept.cache_info()
                    assert info.maxsize is not None and info.currsize <= info.maxsize

class TestDiamond:
    def test_grade_adds_no_higher(self):
        a = SurjElement.of(Surjection((1, 2)))
        b = SurjElement.of(Surjection((1,)))
        prod = diamond(a, b)
        assert prod.grades() == [3]
        # terms are the grade-3 surjections increasing on positions 1, 2
        assert prod == SurjElement(
            {
                Surjection(f): Fraction(1)
                for f in [(1, 2, 1), (1, 2, 2), (1, 2, 3), (1, 3, 2), (2, 3, 1)]
            }
        )

    def test_triple_identity_gives_all_of_grade_three(self):
        one = SurjElement.of(Surjection((1,)))
        prod = diamond(diamond(one, one), one)
        assert prod == SurjElement(
            {Surjection(f): Fraction(1) for f in enumerate_grade(3)}
        )

    def test_unit(self):
        e = SurjElement.unit()
        x = SurjElement.of(Surjection((2, 1, 2)))
        assert diamond(e, x) == x
        assert diamond(x, e) == x

    def test_identity_times_identity_term_count(self):
        # grade 1 x grade 1 = 3 terms: (12), (21), (11)
        prod = diamond(
            SurjElement.of(Surjection((1,))), SurjElement.of(Surjection((1,)))
        )
        assert prod == SurjElement(
            {
                Surjection((1, 2)): Fraction(1),
                Surjection((2, 1)): Fraction(1),
                Surjection((1, 1)): Fraction(1),
            }
        )

    @given(small_surjs, small_surjs)
    @settings(max_examples=30, deadline=None)
    def test_matches_brute_force(self, f, g):
        f, g = Surjection(f), Surjection(g)
        assert diamond(
            SurjElement.of(f), SurjElement.of(g)
        ) == diamond_reference(f, g)

    @given(small_surjs, small_surjs, small_surjs)
    @settings(max_examples=15, deadline=None)
    def test_associative(self, f, g, h):
        a, b, c = (SurjElement.of(Surjection(x)) for x in (f, g, h))
        assert diamond(diamond(a, b), c) == diamond(a, diamond(b, c))

    def test_not_commutative(self):
        a = SurjElement.of(Surjection((1, 2)))
        b = SurjElement.of(Surjection((1, 1)))
        assert diamond(a, b) != diamond(b, a)

    def test_max_grade_prunes(self):
        a = SurjElement.of(Surjection((1, 2)))
        full = diamond(a, a)
        assert diamond(a, a, max_grade=4) == full
        assert diamond(a, a, max_grade=3) == SurjElement.zero()

    @given(elements, elements, st.integers(min_value=0, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_max_grade_equals_truncated_full_product(self, a, b, k):
        assert diamond(a, b, max_grade=k) == diamond(a, b).truncate(k)

    def test_pruned_pairs_do_not_hit_the_grade_cap(self):
        a = SurjElement({Surjection((1,)): 1, Surjection((1, 2, 1)): -2})
        full = diamond(a, a)
        with caps(grade=4):
            # grade 3 + 3 is over the cap, but max_grade prunes it first
            assert diamond(a, a, max_grade=4) == full.truncate(4)
            with pytest.raises(CapExceeded):
                diamond(a, a)


class TestDescentSums:
    def test_exact_formula(self):
        # sum over surjections of grade n with descent set exactly I
        el = descent_sum_exact(3, (1,))
        assert all(Surjection(f).descent_set() == (1,) for f, _ in el)
        assert all(c == 1 for _, c in el)

    def test_within_formula(self):
        el = descent_sum_within(3, (1,))
        assert all(set(Surjection(f).descent_set()) <= {1} for f, _ in el)

    def test_inclusion_exclusion(self):
        n = 4
        for size in range(0, n):
            for positions in _subsets(range(1, n), size):
                within = descent_sum_within(n, positions)
                total = SurjElement.zero()
                for sub_size in range(len(positions) + 1):
                    for sub in _subsets(positions, sub_size):
                        total = total + descent_sum_exact(n, sub)
                assert within == total

    def test_bad_positions_rejected(self):
        with pytest.raises(ValueError):
            descent_sum_exact(3, (3,))  # positions live in 1..n-1
        with pytest.raises(ValueError):
            descent_sum_within(3, (0,))


def _subsets(items, size):
    from itertools import combinations

    return combinations(tuple(items), size)


class TestCompositions:
    def test_enumeration(self):
        assert set(compositions_of(3)) == {
            Composition((3,)),
            Composition((1, 2)),
            Composition((2, 1)),
            Composition((1, 1, 1)),
        }
        assert len(list(compositions_of(5))) == 2 ** 4

    @pytest.mark.parametrize("n", range(7))
    def test_length_then_lex_order(self, n):
        got = compositions_of(n)
        assert got == sorted(got, key=lambda c: (len(c), c))
        assert len(set(got)) == len(got) == max(1, 2 ** (n - 1))
        assert all(type(c) is Composition and c.total == n for c in got)

    def test_zero_has_one_composition_and_negatives_none(self):
        assert compositions_of(0) == [Composition(())]
        with pytest.raises(ValueError, match="n must be >= 0, not -1"):
            compositions_of(-1)

    @pytest.mark.parametrize("parts", [[1.7, 2], [True, 2], [2.0], ["2"], [0, 1], [-1]])
    def test_parts_are_positive_ints(self, parts):
        with pytest.raises(ValueError, match="composition part must be"):
            Composition(parts)

    def test_numpy_parts_and_values_are_read_as_ints(self):
        c, f = Composition([np.int64(2)]), Surjection(np.array([2, 1, 2]))
        assert c == (2,) and type(c[0]) is int
        assert f == (2, 1, 2) and {type(v) for v in f} == {int}

    def test_embedding_of_single_part(self):
        # one part: descents forbidden everywhere, only the increasing map
        assert embed_composition(Composition((2,))) == SurjElement.of(
            Surjection((1, 2))
        )
        assert embed_composition(Composition((2,))) == descent_sum_within(2, ())

    def test_embedding_allows_descents_at_part_boundaries(self):
        # parts (1, 2) meet after position 1, so descents may occur there only
        el = embed_composition(Composition((1, 2)))
        assert el == descent_sum_within(3, (1,))

    @pytest.mark.parametrize("total", [2, 3, 4])
    def test_embedding_multiplicative(self, total):
        for c1 in compositions_of(total):
            for c2 in compositions_of(2):
                combined = Composition(tuple(c1) + tuple(c2))
                assert embed_composition(combined) == diamond(
                    embed_composition(c1), embed_composition(c2)
                )


class TestApply:
    def test_apply_surjection_merges_blocks(self):
        w = BracketWord([(1,), (2,), (3,)])
        assert apply_surjection(Surjection((2, 1, 2)), w) == BracketWord(
            [(2,), (1, 3)]
        )

    def test_apply_surjection_arity_mismatch(self):
        with pytest.raises(ValueError):
            apply_surjection(Surjection((1, 2)), BracketWord([(1,)]))

    def test_apply_element_linear(self):
        el = SurjElement(
            {Surjection((1, 2)): Fraction(1, 2), Surjection((2, 1)): Fraction(-1, 2)}
        )
        w = BracketWord([(1,), (2,)])
        result = apply_element(el, w)
        assert result[BracketWord([(1,), (2,)])] == Fraction(1, 2)
        assert result[BracketWord([(2,), (1,)])] == Fraction(-1, 2)

    def test_apply_element_acts_per_arity(self):
        el = SurjElement(
            {Surjection((1,)): Fraction(1), Surjection((1, 2)): Fraction(1)}
        )
        w = BracketWord([(1,)])
        graded = apply_element(el.restrict(len(w)), w)
        assert graded[BracketWord([(1,)])] == 1
        assert len(graded) == 1
        with pytest.raises(ValueError):
            apply_element(el, w)

    def test_apply_element_refuses_a_non_element(self):
        with pytest.raises(TypeError, match="SurjElement, not NoneType"):
            apply_element(None, ((1,),))


class TestSurjElement:
    def test_pretty(self):
        el = SurjElement(
            {Surjection((1,)): Fraction(1), Surjection((1, 1)): Fraction(-1, 2)}
        )
        assert el.pretty() == "(1) - 1/2 (11)"

    def test_grade_part(self):
        el = SurjElement(
            {Surjection((1,)): Fraction(1), Surjection((1, 2)): Fraction(2)}
        )
        assert el.restrict(2) == SurjElement({Surjection((1, 2)): Fraction(2)})
        assert el.truncate(1) == SurjElement({Surjection((1,)): Fraction(1)})
