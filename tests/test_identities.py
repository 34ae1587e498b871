"""Exact double-sum rearrangements and the index-shift rule."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backlog_lab.errors import DomainError, ResourceLimitError
from backlog_lab.identities import (
    _MAX_N,
    EqualityReport,
    check_identity_a1,
    check_identity_a2,
    check_identity_a3,
    check_index_shift,
    power_summand,
    random_table,
    table_summand,
)

rational = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=50
)


class TestSummands:
    def test_table_lookup(self):
        f = table_summand([1, Fraction(1, 2), 3])
        assert f(1) == Fraction(1, 2)

    def test_table_rejects_out_of_range(self):
        f = table_summand([1, 2])
        with pytest.raises(DomainError):
            f(2)

    def test_power_summand_zero_to_the_zero(self):
        f = power_summand(Fraction(2, 3))
        assert f(0) == 1

    def test_power_summand_with_weight(self):
        f = power_summand(2, weight=2)
        assert f(3) == 9 * 8

    def test_power_summand_rejects_negative_weight(self):
        with pytest.raises(DomainError):
            power_summand(2, weight=-1)

    def test_random_table_is_seed_deterministic(self):
        a = random_table(random.Random(99), 8)
        b = random_table(random.Random(99), 8)
        assert [a(j) for j in range(8)] == [b(j) for j in range(8)]

    def test_random_table_rejects_empty(self):
        with pytest.raises(DomainError):
            random_table(random.Random(0), 0)


class TestFirstRearrangement:
    def test_enumerated_case(self):
        # (0) + (0+1) + (0+1+2) against 3*0 + 2*1 + 1*2.
        r = check_identity_a1(3, power_summand(1, weight=1))
        assert (r.lhs, r.rhs, r.equal) == (Fraction(4), Fraction(4), True)

    def test_single_term(self):
        f = table_summand([Fraction(7, 3)])
        r = check_identity_a1(1, f)
        assert r.lhs == r.rhs == Fraction(7, 3)

    def test_constant_gives_triangular_number(self):
        r = check_identity_a1(5, power_summand(1))
        assert r.lhs == 15

    def test_geometric_summand(self):
        base = Fraction(2, 3)
        r = check_identity_a1(12, power_summand(base))
        assert r.equal
        assert r.lhs == Fraction(5322602, 177147)
        r = check_identity_a1(12, power_summand(base, weight=1))
        assert r.equal
        assert r.lhs == Fraction(7579438, 177147)

    def test_rejects_non_positive_n(self):
        with pytest.raises(DomainError):
            check_identity_a1(0, power_summand(1))


class TestSecondRearrangement:
    def test_all_sums_empty(self):
        r = check_identity_a2(1, power_summand(3))
        assert r.lhs == r.rhs == 0
        assert r.equal

    def test_enumerated_case(self):
        r = check_identity_a2(3, power_summand(1, weight=1))
        assert (r.lhs, r.rhs) == (Fraction(1), Fraction(1))

    def test_doubling_summand(self):
        r = check_identity_a2(4, power_summand(2))
        assert r.equal

    @given(n=st.integers(min_value=2, max_value=20), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150)
    def test_reduces_to_first_identity_at_lower_order(self, n, seed):
        """Shrinking the strict inner bound turns one rearrangement into the
        other; both sides must coincide pairwise."""
        f = random_table(random.Random(seed), n)
        a2 = check_identity_a2(n, f)
        a1 = check_identity_a1(n - 1, f)
        assert a2.lhs == a1.lhs
        assert a2.rhs == a1.rhs


class TestWeightedRearrangement:
    def test_constant_summand(self):
        r = check_identity_a3(3, power_summand(1))
        assert (r.lhs, r.rhs, r.equal) == (Fraction(5), Fraction(5), True)

    def test_two_terms(self):
        r = check_identity_a3(2, table_summand([7, 0]))
        assert r.lhs == r.rhs == 7

    def test_degenerate(self):
        r = check_identity_a3(1, power_summand(5))
        assert r.lhs == r.rhs == 0


class TestPropertySweep:
    @given(
        n=st.integers(min_value=1, max_value=30),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=200)
    def test_all_three_hold_on_random_tables(self, n, seed):
        f = random_table(random.Random(seed), n)
        for check in (check_identity_a1, check_identity_a2, check_identity_a3):
            r = check(n, f)
            assert r.equal, (check.__name__, n, seed, r.lhs, r.rhs)

    @given(n=st.integers(min_value=1, max_value=25), value=rational)
    @settings(max_examples=100)
    def test_hold_for_geometric_summands(self, n, value):
        for check in (check_identity_a1, check_identity_a2, check_identity_a3):
            assert check(n, power_summand(value)).equal


class TestIndexShift:
    def test_forward_shift_enumerated(self):
        r = check_index_shift(0, 3, 1, power_summand(1, weight=1))
        assert r.lhs == r.rhs == 6
        assert r.equal
        assert r.detail == ""

    @given(
        s=st.integers(min_value=0, max_value=10),
        extra=st.integers(min_value=0, max_value=10),
        p=st.integers(min_value=0, max_value=15),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=150)
    def test_non_negative_shift_always_exact(self, s, extra, p, seed):
        n = s + extra
        f = random_table(random.Random(seed), n + 1)
        r = check_index_shift(s, n, p, f)
        assert r.equal

    def test_zero_shift_identical(self):
        f = table_summand([3, 1, 4, 1, 5])
        r = check_index_shift(1, 4, 0, f)
        assert r.lhs == r.rhs

    def test_negative_shift_clipping_drops_terms(self):
        """Clipping the shifted lower bound at zero is lossy; the check
        reports the inequality instead of asserting it away."""
        r = check_index_shift(0, 2, -1, power_summand(1))
        assert r.lhs == 3
        assert r.rhs == 2
        assert not r.equal
        assert r.detail == "lower bound clipped at zero"

    def test_negative_shift_without_clipping_is_exact(self):
        # s + p stays non-negative here, so nothing is dropped.
        r = check_index_shift(5, 9, -3, power_summand(Fraction(1, 2)))
        assert r.equal
        assert r.detail == ""

    def test_rejects_bad_limits(self):
        with pytest.raises(DomainError):
            check_index_shift(-1, 3, 0, power_summand(1))
        with pytest.raises(DomainError):
            check_index_shift(3, 2, 0, power_summand(1))

    def test_report_type(self):
        r = check_index_shift(0, 1, 0, power_summand(1))
        assert isinstance(r, EqualityReport)
        assert r.family == "shift"


def _never_called(j):
    raise AssertionError("the summand was evaluated")


class TestCeiling:
    @pytest.mark.parametrize("check", [check_identity_a1, check_identity_a2, check_identity_a3])
    def test_rearrangements_refuse_above_the_ceiling_before_any_work(self, check):
        with pytest.raises(ResourceLimitError, match=f"ceiling of {_MAX_N}"):
            check(_MAX_N + 1, _never_called)

    def test_index_shift_refuses_above_the_ceiling_before_any_work(self):
        with pytest.raises(ResourceLimitError):
            check_index_shift(0, _MAX_N + 1, 0, _never_called)

    def test_ceiling_itself_is_accepted(self):
        assert check_index_shift(_MAX_N - 1, _MAX_N, 0, power_summand(1)).equal
