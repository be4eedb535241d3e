"""Logarithm of the identity series in the surjection algebra."""

from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement
from math import comb

import pytest

from itoflow import (
    CapExceeded,
    Expansion,
    SurjElement,
    Surjection,
    apply_element,
    caps,
    descent_sum_within,
    diamond,
    enumerate_grade,
    exp_element,
    identity_series,
    log_identity_closed_form,
    log_identity_series,
    log_identity_subset_form,
    qsh,
    strichartz_restriction,
    subset_alternating_sum,
)
from itoflow.verify import words_up_to


def closed_coeff(f: Surjection) -> Fraction:
    n, d = len(f), f.descent_count()
    return Fraction((-1) ** d, n * comb(n - 1, d))


class TestIdentitySeries:
    def test_contents(self):
        el = identity_series(3)
        assert el[Surjection(())] == 1
        for n in range(1, 4):
            assert el[Surjection.identity(n)] == 1
        assert len(el) == 4


class TestLogRoutes:
    @pytest.mark.parametrize("grade", range(1, 5))
    def test_series_equals_closed_form(self, grade):
        assert log_identity_series(grade) == log_identity_closed_form(grade)

    @pytest.mark.parametrize("grade", range(1, 5))
    def test_subset_equals_closed_form(self, grade):
        assert log_identity_subset_form(grade) == log_identity_closed_form(grade)

    def test_grade_one_is_bare_identity(self):
        el = log_identity_closed_form(1)
        assert el == SurjElement.of(Surjection((1,)))

    def test_grade_two_coefficients(self):
        el = log_identity_closed_form(2)
        assert el[Surjection((1, 2))] == Fraction(1, 2)
        assert el[Surjection((2, 1))] == Fraction(-1, 2)
        assert el[Surjection((1, 1))] == Fraction(-1, 2)
        assert el[Surjection((1,))] == 1

    def test_every_surjection_appears_with_law_coefficient(self):
        el = log_identity_closed_form(4)
        for n in range(1, 5):
            for f in enumerate_grade(n):
                f = Surjection(f)
                assert el[f] == closed_coeff(f), f

    def test_no_unit_term(self):
        assert Surjection(()) not in log_identity_closed_form(3)


class TestExpLog:
    @pytest.mark.parametrize("grade", range(1, 5))
    def test_exp_undoes_log(self, grade):
        log_el = log_identity_closed_form(grade)
        assert exp_element(log_el, grade) == identity_series(grade)

    def test_exp_rejects_constant_term(self):
        with pytest.raises(ValueError):
            exp_element(identity_series(2), 2)


class TestSubsetIdentity:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_alternating_sum_equals_descent_law(self, n):
        # sum over supersets J of I of (-1)^|J| / (|J|+1) collapses to the
        # closed-form coefficient with d = |I|
        from itertools import combinations

        for size in range(n):
            for positions in combinations(range(1, n), size):
                value = subset_alternating_sum(n, positions)
                assert value == Fraction((-1) ** size, n * comb(n - 1, size))

    def test_within_sums_are_the_subset_route(self):
        n = 3
        from itertools import combinations

        total = SurjElement.zero()
        for size in range(n):
            for I in combinations(range(1, n), size):
                total = total + Fraction((-1) ** size, size + 1) * descent_sum_within(
                    n, I
                )
        assert total == log_identity_closed_form(3).restrict(3)

    def test_size_is_capped_and_positions_checked(self):
        # 2^19 supersets at n = 20: refused by the grade cap before any work
        with pytest.raises(CapExceeded):
            subset_alternating_sum(20, [])
        with caps(grade=8):
            assert subset_alternating_sum(8, [2]) == Fraction(-1, 8 * comb(7, 1))
        with pytest.raises(ValueError, match=r"descent position 3 outside 1\.\.2"):
            subset_alternating_sum(3, [3])


class TestStrichartzRestriction:
    def test_only_bijections_survive(self):
        el = strichartz_restriction(3)
        assert all(Surjection(f).is_bijection() for f, _ in el)

    def test_classical_coefficients(self):
        el = strichartz_restriction(3)
        assert el[Surjection((1, 2, 3))] == Fraction(1, 3)
        assert el[Surjection((3, 2, 1))] == Fraction(1, 3)
        assert el[Surjection((2, 1, 3))] == Fraction(-1, 6)
        assert len([f for f, _ in el if len(f) == 3]) == 6

    def test_is_the_bijection_part_of_the_log(self):
        full = log_identity_closed_form(4)
        restricted = strichartz_restriction(4)
        assert restricted == SurjElement(
            (f, c) for f, c in full if Surjection(f).is_bijection()
        )


class TestLogSolvesFixedPoint:
    @pytest.mark.parametrize("grade", range(1, 4))
    def test_diamond_exponential_recovers_grouplike(self, grade):
        # the log is primitive-like data: exp of it rebuilds the full series,
        # so diamond powers of the log reweight exactly as factorials demand
        log_el = log_identity_closed_form(grade)
        acc = SurjElement.unit()
        power = SurjElement.unit()
        fact = 1
        for k in range(1, grade + 1):
            power = diamond(power, log_el, max_grade=grade)
            fact *= k
            acc = acc + Fraction(1, fact) * power
        assert acc == identity_series(grade)


def test_the_log_element_is_the_first_eulerian_idempotent():
    """e_1 = log*(id), the log element acting on each word by its part of
    the word's length, kills every qsh product of two nonempty words and is
    idempotent (Loday 1994; Hoffman and Ihara 2017, "Quasi-shuffle products
    revisited"). Only qsh and apply_element are read, not the descent law."""
    log = log_identity_closed_form(4)

    @cache
    def e1_word(w):
        return apply_element(log.restrict(len(w)), w)

    def e1(x):
        return Expansion.sum(e1_word(w) * c for w, c in x)

    words = [w for weight, ws in words_up_to(4).items() if weight for w in ws]
    # qsh commutes, so the 390 unordered pairs stand for all 762 ordered ones
    pairs = [(u, v) for u, v in combinations_with_replacement(words, 2) if u.weight + v.weight <= 4]
    assert (len(words), len(pairs)) == (445, 390)
    assert [(u, v) for u, v in pairs if e1(qsh(u, v))] == []
    assert [w for w in words if e1(e1_word(w)) != e1_word(w)] == []


def test_the_log_element_starts_the_eulerian_idempotents():
    """e_2 = (e_1 diamond e_1)/2 and e_3 = (e_2 diamond e_1)/3, with
    e_1 = log*(id), are orthogonal idempotents, and e_1 + e_2 + e_3 is the
    identity on words of at most 3 blocks, where every e_k with k > 3 acts
    as 0 (Loday 1994; Hoffman 2000, "Quasi-shuffle products").  An element
    acts on a word by its part of the word's length; only diamond and
    apply_element are read, not the descent law."""
    e1 = log_identity_closed_form(4)
    e2 = Fraction(1, 2) * diamond(e1, e1, max_grade=4)
    e3 = Fraction(1, 3) * diamond(e2, e1, max_grade=4)
    idempotents = (e1, e2, e3)

    @cache
    def act(k, w):
        return apply_element(idempotents[k].restrict(len(w)), w)

    def acted(k, x):
        return Expansion.sum(act(k, w) * c for w, c in x)

    words = [w for weight, ws in words_up_to(4).items() if weight for w in ws if len(w) <= 3]
    assert len(words) == 364
    failed = [
        (w, "sum") for w in words if Expansion.sum(act(k, w) for k in range(3)) != Expansion.of(w)
    ]
    for w in words:
        for j in range(3):
            for k in range(3):
                image = act(k, w)
                if acted(j, image) != (image if j == k else Expansion.zero()):
                    failed.append((w, j + 1, k + 1))
    assert failed == []
