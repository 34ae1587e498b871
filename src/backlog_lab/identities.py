"""Exact combinatorial identity checks over the rationals.

The double-sum rearrangements used when integrating the backlog formulas
term by term are verified here symbolically: every summand is a Fraction,
both sides are accumulated exactly, and equality means equality.  Three
families are covered (labelled A1, A2, A3 after their roles as first,
second and weighted rearrangement) plus the index-shift rule, whose
clipped variant for negative shifts is deliberately reported rather than
asserted: clipping at zero silently drops terms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Sequence

from .errors import DomainError, ResourceLimitError, check_int

__all__ = [
    "EqualityReport",
    "table_summand",
    "power_summand",
    "random_table",
    "check_identity_a1",
    "check_identity_a2",
    "check_identity_a3",
    "check_index_shift",
]

Summand = Callable[[int], Fraction]

# Largest upper parameter n a check accepts.  The double sums are built
# from running prefix sums, O(n) exact Fraction additions, but the
# Fractions grow with n: at n = 1000 one A3 check takes about 0.02 s on a
# table of small rationals and 0.08 s on power_summand(3/7, 1).
_MAX_N = 1000


def _check_n(n: int, what: str, low: int) -> int:
    """n, if it is an integer in [low, _MAX_N]; ResourceLimitError above it."""
    check_int(n, what, low)
    if n > _MAX_N:
        raise ResourceLimitError(f"{what} {n} exceeds the ceiling of {_MAX_N}")
    return n


@dataclass(frozen=True)
class EqualityReport:
    """Outcome of one exact check: both sides and whether they agree."""

    family: str
    n: int
    lhs: Fraction
    rhs: Fraction
    equal: bool
    detail: str = ""


def table_summand(values: Sequence[Fraction | int]) -> Summand:
    """Wrap an explicit table of rationals as a summand function."""
    table = tuple(Fraction(v) for v in values)

    def f(j: int) -> Fraction:
        if not 0 <= j < len(table):
            raise DomainError(f"summand index {j} outside table of length {len(table)}")
        return table[j]

    return f


def power_summand(base: Fraction | int, weight: int = 0) -> Summand:
    """Summand j -> j^weight * base^j (with 0^0 = 1), all exact."""
    base = Fraction(base)
    check_int(weight, "weight exponent", 0)

    def f(j: int) -> Fraction:
        if j < 0:
            raise DomainError(f"summand index must be non-negative, got {j}")
        jw = Fraction(j) ** weight if weight else Fraction(1)
        return jw * base**j

    return f


def random_table(rng: random.Random, length: int) -> Summand:
    """Random rational table with numerators in [-100, 100] and nonzero
    denominators in [1, 100], driven by the caller's seeded generator."""
    if length < 1:
        raise DomainError(f"table length must be positive, got {length}")
    values = [
        Fraction(rng.randint(-100, 100), rng.randint(1, 100)) for _ in range(length)
    ]
    return table_summand(values)


def check_identity_a1(n: int, f: Summand) -> EqualityReport:
    """sum_{i=0}^{n-1} sum_{j=0}^{i} f(j)  ==  sum_{i=0}^{n-1} (n-i) f(i).

    The right side is what falls out of swapping the order of summation:
    f(j) is counted once for every i between j and n-1.
    """
    n = _check_n(n, "upper parameter", 1)
    values = [f(j) for j in range(n)]
    lhs = sum(accumulate(values), Fraction(0))
    rhs = sum(((n - i) * v for i, v in enumerate(values)), Fraction(0))
    return EqualityReport("A1", n, lhs, rhs, lhs == rhs)


def check_identity_a2(n: int, f: Summand) -> EqualityReport:
    """sum_{i=0}^{n-1} sum_{j=0}^{i-1} f(j)  ==  sum_{i=0}^{n-2} (n-1-i) f(i).

    Same rearrangement with a strict inner bound; equivalently the A1
    identity evaluated at n-1, which the test bench cross-checks.
    """
    n = _check_n(n, "upper parameter", 1)
    values = [f(j) for j in range(n - 1)]
    # The inner sums over j < i, for i = 0..n-1, run from 0 to sum(values).
    lhs = sum(accumulate(values, initial=Fraction(0)), Fraction(0))
    rhs = sum(((n - 1 - i) * v for i, v in enumerate(values)), Fraction(0))
    return EqualityReport("A2", n, lhs, rhs, lhs == rhs)


def check_identity_a3(n: int, f: Summand) -> EqualityReport:
    """sum_{i=0}^{n-1} i sum_{j=0}^{i-1} f(j)
    ==  sum_{j=0}^{n-2} (n(n-1)/2 - j(j+1)/2) f(j).

    The weight on f(j) is the sum of the is from j+1 through n-1; both
    triangular products are even so the coefficients stay integral.
    """
    n = _check_n(n, "upper parameter", 1)
    values = [f(j) for j in range(n - 1)]
    inner = accumulate(values, initial=Fraction(0))
    lhs = sum((i * s for i, s in enumerate(inner)), Fraction(0))
    rhs = sum(
        ((n * (n - 1) // 2 - j * (j + 1) // 2) * v for j, v in enumerate(values)), Fraction(0)
    )
    return EqualityReport("A3", n, lhs, rhs, lhs == rhs)


def check_index_shift(s: int, n: int, p: int, f: Summand) -> EqualityReport:
    """sum_{i=s}^{n} f(i)  vs  sum_{i=s+p}^{n+p} f(i-p), lower bound clipped at 0.

    For p >= 0 the two sides are identical by substitution.  For p < 0 the
    clipping convention starts the shifted sum at i = 0, which drops the
    terms f(s), ..., f(-p-1) whenever s + p < 0; the report then records
    the inequality instead of raising, since the convention itself is what
    is under scrutiny.
    """
    check_int(s, "lower limit", 0)
    _check_n(n, "upper limit", s)
    check_int(p, "shift")

    lhs = sum((f(i) for i in range(s, n + 1)), Fraction(0))
    lower = s + p
    clipped = lower < 0
    if clipped:
        lower = 0
    rhs = sum((f(i - p) for i in range(lower, n + p + 1)), Fraction(0))
    detail = "lower bound clipped at zero" if clipped else ""
    return EqualityReport("shift", n, lhs, rhs, lhs == rhs, detail)
