"""Logarithm of the identity series of surjections.

The identity series is the unit plus the sum over n of the identity
surjection of each arity.  Its formal logarithm under the surjection
product has an exact closed form: the coefficient of a surjection f of
arity n with d descents is

    (-1)^d / (n * binomial(n-1, d)).

Three independent routes to that element are provided: the alternating
power series of log(1 + x), the closed form above, and the alternating
sum over descent-subset sums.  They must agree exactly; the test suite
checks this.  Applying the element to iterated-integral words yields the
log of the flow map, the reason this module exists.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import comb, lcm
from typing import Callable, Iterable

from ._config import _count, _typed, check_grade
from .kernels import fibers_of, merge_fibers
from .surjections import (
    SurjElement,
    Surjection,
    _check_positions,
    _grade_table,
    descent_sum_within,
    diamond,
)
from .words import BracketWord, Expansion, add_scaled


def descent_coefficient(n: int, d: int) -> Fraction:
    """Log-element coefficient of an arity-n surjection with d descents."""
    return Fraction((-1) ** d, n * comb(n - 1, d))


def identity_series(max_grade: int) -> SurjElement:
    """Unit plus the identity surjection of every arity up to max_grade."""
    max_grade = check_grade(_count("max_grade", max_grade))
    return SurjElement(
        [(Surjection(), 1)]
        + [(Surjection.identity(n), 1) for n in range(1, max_grade + 1)]
    )


def log_identity_series(max_grade: int) -> SurjElement:
    """Formal log of the identity series by the alternating power series.

    log(1 + x) = sum over k >= 1 of (-1)^(k-1)/k x^k with x the sum of the
    positive-arity identities, truncated beyond max_grade.
    """
    max_grade = check_grade(_count("max_grade", max_grade))
    # int-valued throughout: the sum is scaled by L = lcm(1..max_grade), so
    # the k-th power enters with the integer weight (-1)^(k-1) L/k
    x = SurjElement._raw({Surjection.identity(n): 1 for n in range(1, max_grade + 1)})
    scale = lcm(*range(1, max_grade + 1))
    out: dict = {}
    power = SurjElement._raw({Surjection(): 1})
    for k in range(1, max_grade + 1):
        power = diamond(power, x, max_grade=max_grade)
        add_scaled(out, power._terms, (-1) ** (k - 1) * (scale // k))
    return SurjElement._over(out, scale)


def _descent_law_terms(n: int, max_fiber: int = 0):
    """The descent law over the arity's table: (f, descent_coefficient(n, d))
    for each arity-n surjection f in (k, lex) order, d its descent count.

    Both log_identity_closed_form and flowmaps.log_flow_terms read their
    coefficients here.  n must already be within the grade cap; max_fiber
    is as in enumerate_grade.
    """
    surjs, descents = _grade_table(n, max_fiber)
    by_descents = [descent_coefficient(n, d) for d in range(n)]
    return zip(surjs, map(by_descents.__getitem__, descents))


def log_identity_closed_form(max_grade: int) -> SurjElement:
    """The same element from the descent-count coefficient law directly."""
    max_grade = check_grade(_count("max_grade", max_grade))
    data = {}
    for n in range(1, max_grade + 1):
        data.update(_descent_law_terms(n))
    return SurjElement._raw(data)


def _log_action(max_grade: int) -> Callable[[Expansion], Expansion]:
    """The log element up to max_grade acting on expansions of words of at
    most max_grade blocks, for matrix_log and log_flow_expansion: each
    length-n word's blocks merge along the fibers of each arity-n term,
    worked out once, here.  apply_element is the per-term oracle.
    """
    log_nums, d = log_identity_closed_form(max_grade)._numerators()
    fibers = [[] for _ in range(max_grade + 1)]
    coeffs = [[] for _ in range(max_grade + 1)]
    for f, c in log_nums._terms.items():
        fibers[len(f)].append(fibers_of(f))
        coeffs[len(f)].append(c)

    def apply(e: Expansion) -> Expansion:
        nums, t = e._numerators()
        data: dict = {}
        get = data.get
        for w, cw in nums._terms.items():
            n = len(w)
            for v, c in zip(map(merge_fibers, fibers[n], repeat(w)), coeffs[n]):
                prev = get(v)
                data[v] = cw * c if prev is None else prev + cw * c
        return Expansion._over({BracketWord._wrap(v): c for v, c in data.items()}, t * d)

    return apply


def log_identity_subset_form(max_grade: int) -> SurjElement:
    """Third route: alternating sum of descent-subset sums.

    For each arity n, sum over subsets I of {1, ..., n-1} of
    (-1)^|I| / (|I| + 1) times the sum of surjections with descents in I.
    Exponential in n; intended as a cross-check, not a compute path.
    """
    max_grade = check_grade(_count("max_grade", max_grade))
    out = SurjElement.zero()
    for n in range(1, max_grade + 1):
        for I in _subsets(range(1, n)):
            coeff = Fraction((-1) ** len(I), len(I) + 1)
            out = out + descent_sum_within(n, I) * coeff
    return out


def _subsets(items: Iterable[int]):
    items = list(items)
    for mask in range(1 << len(items)):
        yield [x for i, x in enumerate(items) if mask >> i & 1]


def subset_alternating_sum(n: int, positions: Iterable[int]) -> Fraction:
    """Sum of (-1)^|J| / (|J|+1) over supersets J of the given set in [n-1].

    Equals descent_coefficient(n, |I|); the identity that collapses
    the subset form into the closed form.  Exact rational arithmetic over
    2^(n-1-|I|) supersets, so n is bounded by the grade cap.
    """
    n = check_grade(_count("n", n))
    base = set(positions)
    _check_positions(n, tuple(base))
    rest = [i for i in range(1, n) if i not in base]
    total = Fraction(0)
    for extra in _subsets(rest):
        size = len(base) + len(extra)
        total += Fraction((-1) ** size, size + 1)
    return total


def exp_element(e: SurjElement, max_grade: int) -> SurjElement:
    """Truncated exponential: sum of diamond powers over factorials.

    The input must have no grade-0 part, so the sum terminates at the
    max_grade-th power.
    """
    _typed("e", e, SurjElement)
    max_grade = check_grade(_count("max_grade", max_grade))
    if Surjection() in e:
        raise ValueError("exp needs an element with no grade-0 term")
    # e = nums / d; the sum is scaled by n! d^n (n = max_grade), so the k-th
    # power of nums enters with the integer weight n!/k! d^(n-k)
    nums, d = e.truncate(max_grade)._numerators()
    unit = Surjection()
    weights = _exp_weights(max_grade, d)
    out = {unit: weights[0]}
    power = SurjElement._raw({unit: 1})
    for k in range(1, max_grade + 1):
        power = diamond(power, nums, max_grade=max_grade)
        add_scaled(out, power._terms, weights[k])
    return SurjElement._over(out, weights[0])


def _exp_weights(n: int, d: int) -> list[int]:
    """n!/k! d^(n-k) for k = 0..n: the exponential series scaled by n! d^n."""
    weights = [1] * (n + 1)
    for k in range(n - 1, -1, -1):
        weights[k] = weights[k + 1] * (k + 1) * d
    return weights


def strichartz_restriction(max_grade: int) -> SurjElement:
    """Bijection part of the log element.

    Restricting to permutations recovers the classical flow-logarithm
    coefficients of chronological calculus: (-1)^d / (n * binomial(n-1, d))
    with d the number of strict descents of the permutation.
    """
    max_grade = check_grade(_count("max_grade", max_grade))
    full = log_identity_closed_form(max_grade)
    return SurjElement(
        (f, c) for f, c in full if f.is_bijection()
    )
