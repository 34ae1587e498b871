"""Pointwise expected backlog and the six cumulative candidates.

The frozen numbers in this file come from the oracles in this repository:
the truncated series for pointwise values, adaptive quadrature for
integrals, and direct rational arithmetic for the polynomial parts.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backlog_lab.closed_forms import (
    UNDEFINED_TERM,
    CandidateFormula,
    CumulativeValue,
    cumulative_expected_backlog,
    expected_backlog,
)
from backlog_lab.distributions import ModelParams
from backlog_lab.errors import DomainError

ALL = tuple(CandidateFormula)
GRID_LAMBDAS = (0.5, 1.0, 2.0, 5.0)
GRID_TIMES = (0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)


class TestExpectedBacklog:
    def test_zero_stock_is_bare_demand(self):
        # With nothing produced, every demand unit is backlog: exactly lam*t.
        for lam in GRID_LAMBDAS:
            for t in GRID_TIMES:
                assert expected_backlog(ModelParams(lam, 0), t) == lam * t

    def test_unit_everything(self):
        assert expected_backlog(ModelParams(1.0, 1), 1.0) == pytest.approx(
            math.exp(-1.0), rel=1e-14
        )

    def test_known_value(self):
        # Series oracle value, certified below 1e-12.
        assert expected_backlog(ModelParams(2.0, 3), 1.5) == pytest.approx(
            0.6721254229661632, rel=1e-13
        )

    def test_rejects_negative_time(self):
        with pytest.raises(DomainError):
            expected_backlog(ModelParams(1.0, 1), -0.5)

    @pytest.mark.parametrize("production", [0, 1])
    def test_rejects_overflowing_demand(self, production):
        # lam * t overflows to inf; P = 0 used to return it.
        with pytest.raises(DomainError):
            expected_backlog(ModelParams(1e200, production), 1e200)

    @given(
        lam=st.sampled_from(GRID_LAMBDAS),
        production=st.integers(min_value=0, max_value=10),
        t=st.floats(min_value=0.0, max_value=20.0),
    )
    @settings(max_examples=300)
    def test_bounds(self, lam, production, t):
        """max(0, lam t - P) <= E <= lam t at every point."""
        v = expected_backlog(ModelParams(lam, production), t)
        assert v >= max(0.0, lam * t - production) - 1e-12
        assert v <= lam * t + 1e-12

    def test_monotone_in_time(self):
        for lam in GRID_LAMBDAS:
            for production in range(0, 11):
                params = ModelParams(lam, production)
                ts = [k * 0.1 for k in range(200)]
                vals = [expected_backlog(params, t) for t in ts]
                assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_non_increasing_in_stock(self):
        for lam in GRID_LAMBDAS:
            for t in GRID_TIMES:
                vals = [expected_backlog(ModelParams(lam, p), t) for p in range(11)]
                assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


class TestAsymptote:
    def test_gap_closes_for_large_time(self):
        # The exponential correction to the line lam*t - P decays with the
        # Poisson tail.
        params = ModelParams(1.0, 3)
        gap = expected_backlog(params, 40.0) - (1.0 * 40.0 - 3)
        assert abs(gap) < 1e-10


class TestCandidateSet:
    def test_tags_are_closed(self):
        assert {c.value for c in CandidateFormula} == {
            "original",
            "original-negexp",
            "wolfram",
            "note",
            "eq10",
            "compact",
        }

    def test_unknown_candidate_rejected(self):
        with pytest.raises(DomainError):
            cumulative_expected_backlog(ModelParams(1.0, 1), 1.0, "compact")

    @pytest.mark.parametrize("candidate", ALL)
    def test_overflowing_demand_rejected_at_zero_stock(self, candidate):
        # original and compact used to return inf here.
        with pytest.raises(DomainError):
            cumulative_expected_backlog(ModelParams(1e200, 0), 1e200, candidate)


class TestCumulativeCandidates:
    def test_zero_stock_collapse(self):
        """With P = 0 every variant reduces to the integral of lam*u."""
        params = ModelParams(1.5, 0)
        for candidate in ALL:
            res = cumulative_expected_backlog(params, 2.0, candidate)
            assert res.value == pytest.approx(3.0, rel=1e-14)

    def test_zero_stock_warning_only_where_a_factorial_breaks(self):
        params = ModelParams(1.5, 0)
        flagged = {
            c for c in ALL
            if cumulative_expected_backlog(params, 2.0, c).warnings
        }
        assert flagged == {CandidateFormula.NOTE, CandidateFormula.EQ10}

    def test_stock_one_warning_set(self):
        params = ModelParams(1.0, 1)
        flagged = {
            c for c in ALL
            if cumulative_expected_backlog(params, 1.0, c).warnings
        }
        assert flagged == {CandidateFormula.NOTE}
        res = cumulative_expected_backlog(params, 1.0, CandidateFormula.NOTE)
        assert res.warnings == (UNDEFINED_TERM,)

    def test_no_warnings_at_larger_stock(self):
        params = ModelParams(1.0, 2)
        for candidate in ALL:
            assert cumulative_expected_backlog(params, 1.0, candidate).warnings == ()

    def test_compact_unit_point(self):
        # 1/2 - 1 + 1 - e^{-1}, confirmed by quadrature of the pointwise form.
        res = cumulative_expected_backlog(ModelParams(1.0, 1), 1.0, CandidateFormula.COMPACT)
        assert res.value == pytest.approx(0.13212055882855767, rel=1e-14)

    @pytest.mark.parametrize(
        "candidate",
        [CandidateFormula.ORIGINAL, CandidateFormula.ORIGINAL_NEGEXP, CandidateFormula.COMPACT],
    )
    def test_vanishing_start(self, candidate):
        res = cumulative_expected_backlog(ModelParams(1.0, 1), 0.0, candidate)
        assert res.value == 0.0

    def test_note_start_offset(self):
        # At t = 0 this variant leaves -P(P+1)/lam on the table; the value is
        # diagnostic and arrives with the undefined-term flag at P = 1.
        res = cumulative_expected_backlog(ModelParams(1.0, 1), 0.0, CandidateFormula.NOTE)
        assert res.value == pytest.approx(-2.0, abs=1e-15)
        assert res.warnings == (UNDEFINED_TERM,)

    def test_result_carries_inputs(self):
        res = cumulative_expected_backlog(ModelParams(1.0, 2), 0.5, CandidateFormula.EQ10)
        assert isinstance(res, CumulativeValue)
        assert res.t == 0.5
        assert res.candidate is CandidateFormula.EQ10

    def test_rejects_negative_time(self):
        with pytest.raises(DomainError):
            cumulative_expected_backlog(ModelParams(1.0, 1), -1.0, CandidateFormula.COMPACT)

    def test_frozen_table_lambda_one_stock_two(self):
        """All six variants at three times, values frozen from direct
        evaluation and cross-checked against the quadrature oracle where a
        variant is supposed to be right."""
        expected = {
            0.5: {
                CandidateFormula.ORIGINAL: -3.6455244474504482,
                CandidateFormula.ORIGINAL_NEGEXP: 0.0021426910057833481,
                CandidateFormula.WOLFRAM: -5.9978573089942167,
                CandidateFormula.NOTE: -4.7847959895689502,
                CandidateFormula.EQ10: -5.9978573089942167,
                CandidateFormula.COMPACT: 0.0021426910057829041,
            },
            1.0: {
                CandidateFormula.ORIGINAL: -9.3731273138361804,
                CandidateFormula.ORIGINAL_NEGEXP: 0.028482235314230664,
                CandidateFormula.WOLFRAM: -5.9715177646857693,
                CandidateFormula.NOTE: -4.5,
                CandidateFormula.EQ10: -5.9715177646857693,
                CandidateFormula.COMPACT: 0.028482235314230664,
            },
            2.0: {
                CandidateFormula.ORIGINAL: -35.945280494653254,
                CandidateFormula.ORIGINAL_NEGEXP: 0.32332358381693638,
                CandidateFormula.WOLFRAM: -5.6766764161830636,
                CandidateFormula.NOTE: -4.593994150290162,
                CandidateFormula.EQ10: -5.6766764161830636,
                CandidateFormula.COMPACT: 0.32332358381693649,
            },
        }
        params = ModelParams(1.0, 2)
        for t, row in expected.items():
            for candidate, value in row.items():
                got = cumulative_expected_backlog(params, t, candidate).value
                assert got == pytest.approx(value, rel=1e-12, abs=1e-15), (t, candidate)

    def test_divergent_variant_grows_without_bound(self):
        params = ModelParams(1.0, 2)
        small = cumulative_expected_backlog(params, 5.0, CandidateFormula.ORIGINAL).value
        large = cumulative_expected_backlog(params, 30.0, CandidateFormula.ORIGINAL).value
        assert abs(large) > 1e9
        assert abs(large) > abs(small)


class TestCrossChecks:
    def test_decaying_rewrite_equals_compact_form(self):
        """The two algebraic rearrangements of the same integral must agree;
        any disagreement is reported point by point, never swallowed."""
        mismatches = []
        for lam in GRID_LAMBDAS:
            for production in range(0, 11):
                params = ModelParams(lam, production)
                for t in GRID_TIMES:
                    a = cumulative_expected_backlog(
                        params, t, CandidateFormula.ORIGINAL_NEGEXP
                    ).value
                    b = cumulative_expected_backlog(
                        params, t, CandidateFormula.COMPACT
                    ).value
                    if abs(a - b) >= 1e-9:
                        mismatches.append((lam, production, t, a, b))
        assert mismatches == []

    def test_derivative_of_matching_variants(self):
        """Central differences of the cumulative forms that track the oracle
        must reproduce the pointwise expected backlog."""
        h = 1e-4
        points = [(1.0, 2, 1.5), (2.0, 4, 3.0), (0.5, 1, 2.0), (5.0, 6, 1.0)]
        for lam, production, t in points:
            params = ModelParams(lam, production)
            want = expected_backlog(params, t)
            for candidate in (CandidateFormula.ORIGINAL_NEGEXP, CandidateFormula.COMPACT):
                hi = cumulative_expected_backlog(params, t + h, candidate).value
                lo = cumulative_expected_backlog(params, t - h, candidate).value
                assert abs((hi - lo) / (2 * h) - want) < 1e-5

    @given(
        lam=st.floats(min_value=0.1, max_value=10.0),
        production=st.integers(min_value=0, max_value=12),
    )
    @settings(max_examples=200)
    def test_compact_form_starts_at_zero(self, lam, production):
        res = cumulative_expected_backlog(
            ModelParams(lam, production), 0.0, CandidateFormula.COMPACT
        )
        assert abs(res.value) < 1e-12
