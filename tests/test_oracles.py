"""Series, quadrature, Monte Carlo, and convolution ground-truth engines."""

import math
import random
import sys
from pathlib import Path

import pytest

import backlog_lab.oracles
from backlog_lab.adjudicator import default_grid
from backlog_lab.closed_forms import CandidateFormula, cumulative_expected_backlog, expected_backlog
from backlog_lab.distributions import ModelParams, erlang_density
from backlog_lab.errors import AccuracyError, DomainError, ResourceLimitError
from backlog_lab.oracles import (
    EstimateWithError,
    McConfig,
    backlog_series_oracle,
    cumulative_quadrature_oracle,
    cumulative_series_oracle,
    monte_carlo_cumulative,
    nfold_exponential_convolution,
)

# The benchmark's mpmath references (50 digits), which import nothing
# from backlog_lab.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import references  # noqa: E402


class TestSeriesOracle:
    def test_zero_stock_is_poisson_mean(self):
        for lam, t in [(0.5, 1.0), (2.0, 3.0), (5.0, 0.2)]:
            est = backlog_series_oracle(ModelParams(lam, 0), t, 1e-12)
            assert abs(est.value - lam * t) <= 1e-12
            assert est.abs_error_bound <= 1e-12

    def test_unit_point(self):
        est = backlog_series_oracle(ModelParams(1.0, 1), 1.0, 1e-12)
        assert est.value == pytest.approx(math.exp(-1.0), abs=2e-12)

    def test_deep_tail_is_tiny_but_positive(self):
        est = backlog_series_oracle(ModelParams(2.0, 5), 0.1, 1e-12)
        assert 0.0 < est.value < 1e-5
        assert est.value == pytest.approx(7.709526875438649e-08, rel=1e-6)

    def test_zero_time(self):
        est = backlog_series_oracle(ModelParams(3.0, 2), 0.0, 1e-12)
        assert est.value == 0.0

    def test_agrees_with_closed_form_on_grid(self):
        worst = 0.0
        for lam in (0.5, 1.0, 2.0, 5.0):
            for production in range(0, 11):
                params = ModelParams(lam, production)
                for t in (0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
                    est = backlog_series_oracle(params, t, 1e-12)
                    worst = max(worst, abs(est.value - expected_backlog(params, t)))
        assert worst < 1e-10

    def test_certified_bound_is_honest(self):
        # The closed form is the cross-check: the reported bound must cover
        # the actual gap with room to spare.
        for lam, production, t in [(1.0, 1, 1.0), (2.0, 4, 3.0), (0.5, 8, 10.0)]:
            params = ModelParams(lam, production)
            est = backlog_series_oracle(params, t, 1e-10)
            assert abs(est.value - expected_backlog(params, t)) <= max(est.abs_error_bound, 1e-13)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(DomainError):
            backlog_series_oracle(ModelParams(1.0, 1), 1.0, 0.0)

    def test_term_cap_raises_accuracy_error(self, monkeypatch):
        monkeypatch.setattr(backlog_lab.oracles, "_MAX_SERIES_TERMS", 3)
        with pytest.raises(AccuracyError):
            backlog_series_oracle(ModelParams(2.0, 3), 5.0, 1e-12)


class TestCumulativeSeriesOracle:
    def test_zero_time_is_exact(self):
        est = cumulative_series_oracle(ModelParams(1.0, 3), 0.0)
        assert est == EstimateWithError(value=0.0, abs_error_bound=0.0, n_effective=0)

    def test_unit_point_against_antiderivative(self):
        est = cumulative_series_oracle(ModelParams(1.0, 1), 1.0)
        assert abs(est.value - (0.5 - 1.0 + 1.0 - math.exp(-1.0))) <= est.abs_error_bound

    def test_log_uniform_sweep_within_bound_of_mpmath(self):
        """lam t log-uniform over [1e-3, 1e4], across the 700 anchor switch,
        with P at 0, 1, x/2, x and 2x.  The reference is the 50-digit value
        rounded to a double, so half an ulp of it is allowed on top."""
        rng = random.Random(20231)
        for lam in (0.3, 1.0, 7.0):
            for _ in range(40):
                x = 10.0 ** rng.uniform(-3.0, 4.0)
                t = x / lam
                for production in sorted({0, 1, int(x / 2), int(x), int(2 * x)}):
                    est = cumulative_series_oracle(ModelParams(lam, production), t, 1e300)
                    truth = references.cumulative_backlog(lam, production, t)
                    err = abs(est.value - truth)
                    assert err <= est.abs_error_bound + 0.5 * math.ulp(truth), (
                        lam, production, t, est, truth
                    )

    def test_accurate_to_rounding_on_default_grid(self):
        # Values reach about 100 there, whose ulp is 1.4e-14.
        grid = default_grid()
        for lam in grid.lambdas:
            for production in grid.productions:
                for t in grid.times:
                    est = cumulative_series_oracle(ModelParams(lam, production), t)
                    truth = references.cumulative_backlog(lam, production, t)
                    assert est.abs_error_bound < 1e-11
                    assert abs(est.value - truth) <= 1e-13

    def test_agrees_with_quadrature_oracle_on_default_grid(self):
        grid = default_grid()
        for lam in grid.lambdas:
            for production in grid.productions:
                params = ModelParams(lam, production)
                for t in grid.times:
                    series = cumulative_series_oracle(params, t)
                    quad = cumulative_quadrature_oracle(params, t)
                    gap = abs(series.value - quad.value)
                    assert gap <= series.abs_error_bound + quad.abs_error_bound

    def test_uncertifiable_tolerance_raises_accuracy_error(self):
        # At lam t = 1e4 the lgamma anchor alone costs about 1e-10 relative.
        with pytest.raises(AccuracyError) as info:
            cumulative_series_oracle(ModelParams(1.0, 0), 1e4, 1e-9)
        assert info.value.best_estimate == pytest.approx(5e7, rel=1e-9)

    def test_term_cap_raises_accuracy_error(self, monkeypatch):
        monkeypatch.setattr(backlog_lab.oracles, "_MAX_SERIES_TERMS", 3)
        with pytest.raises(AccuracyError):
            cumulative_series_oracle(ModelParams(2.0, 3), 5.0)

    @pytest.mark.parametrize("t", [1e14, 1e300])
    def test_anchor_without_a_correct_digit_is_refused(self, t):
        with pytest.raises(AccuracyError, match="no correct digit"):
            cumulative_series_oracle(ModelParams(1.0, 0), t, 1e300)

    def test_non_finite_demand_is_domain_error(self):
        with pytest.raises(DomainError):
            cumulative_series_oracle(ModelParams(1e200, 0), 1e200)


class TestQuadratureOracle:
    def test_zero_time_is_exact(self):
        est = cumulative_quadrature_oracle(ModelParams(1.0, 3), 0.0, 1e-9)
        assert est == EstimateWithError(value=0.0, abs_error_bound=0.0, n_effective=0)

    def test_zero_stock_quadratic(self):
        est = cumulative_quadrature_oracle(ModelParams(2.0, 0), 3.0, 1e-9)
        assert abs(est.value - 9.0) <= 1e-9

    def test_unit_point_against_antiderivative(self):
        # lam u - 1 + e^{-u} integrates to t^2/2 - t + 1 - e^{-t}.
        est = cumulative_quadrature_oracle(ModelParams(1.0, 1), 1.0, 1e-9)
        assert abs(est.value - (0.5 - 1.0 + 1.0 - math.exp(-1.0))) <= 1e-9

    def test_reported_bound_within_budget(self):
        for tol in (1e-6, 1e-9):
            est = cumulative_quadrature_oracle(ModelParams(2.0, 3), 4.0, tol)
            assert est.abs_error_bound < 0.9 * tol

    def test_agrees_with_compact_form(self):
        for lam in (0.5, 2.0):
            for production in (0, 3, 6):
                params = ModelParams(lam, production)
                for t in (0.5, 2.0, 10.0):
                    est = cumulative_quadrature_oracle(params, t, 1e-10)
                    closed = cumulative_expected_backlog(
                        params, t, CandidateFormula.COMPACT
                    ).value
                    assert abs(est.value - closed) < 1e-9

    def test_non_decreasing_in_time(self):
        params = ModelParams(1.0, 2)
        ts = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
        vals = [cumulative_quadrature_oracle(params, t, 1e-10).value for t in ts]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_convex_beyond_the_bend(self):
        """Once demand outruns stock the integrand keeps growing, so second
        differences of the integral must be positive."""
        params = ModelParams(2.0, 3)
        ts = [1.5 + 0.5 * k for k in range(8)]
        vals = [cumulative_quadrature_oracle(params, t, 1e-10).value for t in ts]
        second = [vals[i + 1] - 2 * vals[i] + vals[i - 1] for i in range(1, len(vals) - 1)]
        assert min(second) > 0.0

    def test_rejects_negative_time(self):
        with pytest.raises(DomainError):
            cumulative_quadrature_oracle(ModelParams(1.0, 1), -1.0, 1e-9)

    def test_garbage_integrand_exhausts_the_evaluation_budget(self):
        # Past lam t = 700 at small P the series oracle returns about half
        # the true value, so the integrand never settles; the quadrature
        # stops at its evaluation budget instead of running on.
        with pytest.raises(AccuracyError) as info:
            cumulative_quadrature_oracle(ModelParams(100.0, 50), 10.0)
        assert info.value.best_estimate is not None


class TestMcConfig:
    def test_valid(self):
        cfg = McConfig(n_paths=1000, seed=7)
        assert (cfg.n_paths, cfg.seed) == (1000, 7)

    @pytest.mark.parametrize("kwargs", [
        dict(n_paths=0, seed=1),
        dict(n_paths=100, seed=-1),
        dict(n_paths=100, seed=2**64),
        dict(n_paths=True, seed=1),
    ])
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(DomainError):
            McConfig(**kwargs)


class TestMonteCarlo:
    def test_deterministic_for_fixed_seed(self):
        params = ModelParams(1.0, 2)
        cfg = McConfig(n_paths=20_000, seed=42)
        a = monte_carlo_cumulative(params, 2.0, cfg)
        b = monte_carlo_cumulative(params, 2.0, cfg)
        assert a == b

    def test_seed_changes_the_draw(self):
        params = ModelParams(1.0, 2)
        a = monte_carlo_cumulative(params, 2.0, McConfig(n_paths=20_000, seed=1))
        b = monte_carlo_cumulative(params, 2.0, McConfig(n_paths=20_000, seed=2))
        assert a.value != b.value

    def test_frozen_regression(self):
        est = monte_carlo_cumulative(ModelParams(1.0, 2), 2.0, McConfig(n_paths=100_000, seed=7))
        assert est.value == pytest.approx(0.3229582439766921, rel=1e-15)
        assert est.abs_error_bound == pytest.approx(0.005755125570266387, rel=1e-12)
        assert est.n_effective == 100_000

    def test_zero_stock_mean(self):
        # Exact answer is lam t^2 / 2 = 2; a million paths put the 99%
        # confidence half-width near 0.004.
        est = monte_carlo_cumulative(ModelParams(1.0, 0), 2.0, McConfig(n_paths=10**6, seed=11))
        assert abs(est.value - 2.0) <= est.abs_error_bound
        assert 0.002 < est.abs_error_bound < 0.008

    def test_brackets_quadrature_at_unit_point(self):
        # A fixed seed keeps this deterministic; the 95-of-100-seeds
        # statistical guarantee lives in the acceptance suite.
        params = ModelParams(1.0, 1)
        est = monte_carlo_cumulative(params, 1.0, McConfig(n_paths=10**6, seed=1))
        truth = cumulative_quadrature_oracle(params, 1.0, 1e-10).value
        assert abs(est.value - truth) <= est.abs_error_bound

    def test_never_negative_and_tiny_when_stock_towers(self):
        params = ModelParams(1.0, 10)
        est = monte_carlo_cumulative(params, 0.1, McConfig(n_paths=10**5, seed=3))
        truth = cumulative_quadrature_oracle(params, 0.1, 1e-12).value
        assert est.value >= 0.0
        assert abs(est.value - truth) <= max(est.abs_error_bound, 1e-12)

    def test_zero_time(self):
        est = monte_carlo_cumulative(ModelParams(1.0, 1), 0.0, McConfig(n_paths=1000, seed=0))
        assert est.value == 0.0
        assert est.abs_error_bound == 0.0

    def test_small_sample_flagged(self):
        est = monte_carlo_cumulative(ModelParams(1.0, 2), 2.0, McConfig(n_paths=50, seed=1))
        assert "ci-unreliable" in est.notes


class TestConvolution:
    def test_two_fold_recovers_known_density(self):
        got = nfold_exponential_convolution(1.0, 2, 1.0, 1e-3)
        assert abs(got - math.exp(-1.0)) < 1e-5

    def test_three_fold_matches_closed_density(self):
        got = nfold_exponential_convolution(2.0, 3, 0.5, 1e-3)
        assert abs(got - erlang_density(2.0, 3, 0.5)) < 1e-4

    def test_low_orders_are_exact_for_trapezoid(self):
        # Up to the three-fold case the integrand is piecewise linear, so
        # the rule carries no truncation error at all.
        for n in (2, 3):
            got = nfold_exponential_convolution(1.0, n, 1.0, 1e-3)
            assert abs(got - erlang_density(1.0, n, 1.0)) < 1e-12

    def test_second_order_convergence_where_observable(self):
        """Halving the step divides the error by about four once the
        integrand has curvature, which first happens at the four-fold."""
        truth = erlang_density(1.0, 4, 1.0)
        e1 = abs(nfold_exponential_convolution(1.0, 4, 1.0, 2e-3) - truth)
        e2 = abs(nfold_exponential_convolution(1.0, 4, 1.0, 1e-3) - truth)
        assert 3.4 < e1 / e2 < 4.6

    @pytest.mark.parametrize("n", [1, 9, 2.5])
    def test_rejects_bad_fold_count(self, n):
        with pytest.raises(DomainError):
            nfold_exponential_convolution(1.0, n, 1.0, 1e-3)

    def test_rejects_coarse_grid(self):
        with pytest.raises(DomainError):
            nfold_exponential_convolution(1.0, 2, 1.0, 0.02)

    def test_rejects_excessive_grid(self):
        with pytest.raises(ResourceLimitError):
            nfold_exponential_convolution(1.0, 2, 2.0, 2e-9)
