"""Series, quadrature, Monte Carlo, and convolution ground-truth engines."""

import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import backlog_lab.oracles
from backlog_lab.adjudicator import default_grid
from backlog_lab.closed_forms import CandidateFormula, cumulative_expected_backlog, expected_backlog
from backlog_lab.distributions import ModelParams, erlang_density, poisson_term
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

    def test_log_uniform_sweep_within_bound_of_mpmath(self):
        """lam t log-uniform over [1e-3, 1e5], across the 700 anchor switch,
        with P at 0, 1, x/2, x and 2x.  The reference is the 50-digit value
        rounded to a double, so half an ulp of it is allowed on top."""
        rng = random.Random(20232)
        for lam in (0.3, 1.0, 7.0):
            for _ in range(40):
                x = 10.0 ** rng.uniform(-3.0, 5.0)
                t = x / lam
                for production in sorted({0, 1, int(x / 2), int(x), int(2 * x)}):
                    est = backlog_series_oracle(ModelParams(lam, production), t)
                    truth = references.expected_backlog(lam * t, production)
                    err = abs(est.value - truth)
                    assert err <= est.abs_error_bound + 0.5 * math.ulp(truth), (
                        lam, production, t, est, truth
                    )

    def test_terms_under_the_floor_are_charged(self):
        # From the first P whose p_{P+1} lies under the floor the series
        # sums only zeros, yet its true value is not zero.
        x = 5.0
        production = next(p for p in range(1000) if poisson_term(x, p + 1) == 0.0)
        est = backlog_series_oracle(ModelParams(1.0, production), x)
        truth = references.expected_backlog(x, production)
        assert est.value == 0.0 < truth <= est.abs_error_bound

    @pytest.mark.parametrize("x,production", [(750.0, 0), (1e4, 10), (3e4, 1)])
    def test_no_mass_skipped_below_the_mode(self, x, production):
        # Past the anchor switch the terms between P+1 and the mode carry
        # about half the mass; all of it must be summed.
        est = backlog_series_oracle(ModelParams(1.0, production), x)
        truth = references.expected_backlog(x, production)
        assert abs(est.value - truth) <= est.abs_error_bound <= 1e-9 * x

    @pytest.mark.parametrize("x", [1e13, 1e17, 1e20])
    @pytest.mark.parametrize("half", [False, True])
    def test_hopeless_walk_is_refused_before_any_term(self, x, half):
        # At 1e13 the walk needs more than the term budget; from about 2e13
        # the anchor has no correct digit, and from 1e17 the tail ratio
        # x/(n+1) rounds to 1.
        production = int(x / 2) if half else 0
        with pytest.raises(AccuracyError) as info:
            backlog_series_oracle(ModelParams(x, production), 1.0)
        assert info.value.best_estimate is None

    def test_non_finite_demand_is_domain_error(self):
        with pytest.raises(DomainError):
            backlog_series_oracle(ModelParams(1e200, 0), 1e200)

    def test_within_the_term_budget_above_the_gate_is_not_refused(self):
        # About 2 million terms, above the lambda*t where the a-priori
        # refusal is computed; pinned from a run without it.
        est = backlog_series_oracle(ModelParams(1.0, 6_000_000_000), 1.2e10)
        assert est.value.hex() == "0x1.65a21060ab0cdp+32"
        assert est.abs_error_bound.hex() == "0x1.72265babb8aa2p+21"
        assert est.n_effective == 1_985_533


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

    @pytest.mark.parametrize("t", [1e12, 1e13])
    def test_past_the_term_budget_is_refused_before_any_term(self, t):
        # These need about 16.5 sqrt(lam t) terms, past ten million.
        with pytest.raises(AccuracyError, match="needs more than") as info:
            cumulative_series_oracle(ModelParams(1.0, 0), t, 1e300)
        assert info.value.best_estimate is None

    def test_within_the_term_budget_is_not_refused(self):
        # About 5.2 million terms, inside the budget, so the walk runs; the
        # value is pinned from a run of the walk without the a-priori check.
        est = cumulative_series_oracle(ModelParams(1.0, 0), 1e11, 1e300)
        assert est.value.hex() == "0x1.0f17429ac7da0p+72"
        assert est.n_effective == 5_219_431

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

    def test_integrand_past_the_anchor_switch_is_within_bound(self):
        # lam t runs to 1000 over [0, t], past the 700 anchor switch, where
        # the series oracle sums the terms below the mode too.
        est = cumulative_quadrature_oracle(ModelParams(100.0, 50), 10.0)
        truth = references.cumulative_backlog(100.0, 50, 10.0)
        assert abs(est.value - truth) <= est.abs_error_bound

    def test_charges_the_integrand_bound_past_its_tolerance(self, monkeypatch):
        # Past the switch the lgamma anchor's error makes the series
        # oracle's bound exceed the integrand tolerance 0.45 abs_tol / t.
        bounds = []
        series = backlog_lab.oracles.backlog_series_oracle

        def recording(params, u, abs_tol):
            est = series(params, u, abs_tol)
            bounds.append((est.abs_error_bound, abs_tol))
            return est

        monkeypatch.setattr(backlog_lab.oracles, "backlog_series_oracle", recording)
        est = cumulative_quadrature_oracle(ModelParams(100.0, 50), 10.0, 1e-9)
        worst, integrand_tol = max(bounds)
        assert worst > 100 * integrand_tol
        assert est.abs_error_bound >= 10.0 * worst


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


def _direct_convolution(lam, n, t, grid_step):
    """The scheme as a direct O(m^2) convolution of the sampled density."""
    import numpy as np

    m = round(t / grid_step)
    h = t / m
    base = lam * np.exp(-lam * np.linspace(0.0, t, m + 1))
    cur = base.copy()
    for _ in range(n - 1):
        full = np.convolve(cur, base)[: m + 1]
        cur = h * (full - 0.5 * cur[0] * base - 0.5 * base[0] * cur)
    return float(cur[-1])


# (lam, n, t, m): the convolution ops of the benchmark's sampling workload
# for seeds 1-3, each at grid step t / m, and criterion 5's points.
SAMPLING_CONVOLUTIONS = [
    (0.527169, 2, 9.60382, 10000), (3.524571, 3, 0.888898, 7071),
    (0.784474, 4, 4.51448, 5774), (0.531125, 5, 3.657891, 5000),
    (1.242859, 6, 3.553405, 4472), (0.811832, 7, 2.459791, 4082),
    (0.788041, 8, 5.02816, 3780), (0.538782, 2, 2.015086, 10000),
    (1.314653, 3, 1.974793, 7071), (1.101939, 4, 13.124636, 5774),
    (1.492011, 5, 3.593096, 5000), (0.816979, 6, 1.314708, 4472),
    (0.983113, 7, 1.531948, 4082), (1.444601, 8, 13.790162, 3780),
    (2.019831, 2, 0.59978, 10000), (2.419469, 3, 2.428389, 7071),
    (0.935496, 4, 1.17302, 5774), (3.024259, 5, 1.36283, 5000),
    (2.229116, 6, 6.24064, 4472), (2.207462, 7, 7.152926, 4082),
    (1.13673, 8, 9.690563, 3780),
]
CRITERION_5_POINTS = [(1.0, n, 1.0, 1000) for n in (2, 3, 4, 5)] + [(1.0, 4, 1.0, 500)]


class TestConvolution:
    def test_two_fold_recovers_known_density(self):
        got = nfold_exponential_convolution(1.0, 2, 1.0, 1e-3)
        assert abs(got - math.exp(-1.0)) < 1e-5

    def test_three_fold_matches_closed_density(self):
        got = nfold_exponential_convolution(2.0, 3, 0.5, 1e-3)
        assert abs(got - erlang_density(2.0, 3, 0.5)) < 1e-4

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("x", [1.0, 50.0, 200.0, 700.0])
    @pytest.mark.parametrize("lam", [1.0, 3.0])
    def test_low_orders_are_exact_for_trapezoid(self, lam, n, x):
        # Up to the three-fold case the integrand is piecewise linear, so
        # the rule carries no truncation error at all, far into the tail.
        t = x / lam
        want = erlang_density(lam, n, t)
        assert abs(nfold_exponential_convolution(lam, n, t, t / 2000) - want) <= 1e-13 * want

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

    def test_rejects_overflowing_lambda_t(self):
        with pytest.raises(DomainError):
            nfold_exponential_convolution(1e200, 2, 1e200, 1e198)

    @pytest.mark.parametrize("lam, n, t, m", SAMPLING_CONVOLUTIONS + CRITERION_5_POINTS)
    def test_matches_the_direct_convolution(self, lam, n, t, m):
        want = _direct_convolution(lam, n, t, t / m)
        assert abs(nfold_exponential_convolution(lam, n, t, t / m) - want) <= 1e-12 * want

    @pytest.mark.parametrize("n", [2, 3])
    def test_keeps_digits_where_the_exponential_alone_underflows(self, n):
        # e^{-1000} is below the smallest double, yet at lam = 1e300 the
        # density lam^n t^{n-1} e^{-lam t} / (n-1)! is 5.1e-132 (n = 2)
        # and 2.5e-129 (n = 3).
        import mpmath

        lam, t = 1e300, 1000 / 1e300
        with mpmath.workdps(50):
            lm, tm = mpmath.mpf(lam), mpmath.mpf(t)
            want = float(lm**n * tm ** (n - 1) * mpmath.exp(-lm * tm) / mpmath.factorial(n - 1))
        got = nfold_exponential_convolution(lam, n, t, t / 1000)
        assert abs(got - want) <= 1e-12 * want

    def test_million_point_eight_fold_grid_is_fast_and_second_order(self):
        lam, t, m = 1.3, 10.0, 1_000_000
        code = (
            "from backlog_lab.oracles import nfold_exponential_convolution\n"
            f"print(repr(nfold_exponential_convolution({lam}, 8, {t}, {t} / {m})))"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")))
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr.decode()
        h = t / m
        got = float(proc.stdout)
        assert abs(got - erlang_density(lam, 8, t)) <= 0.5 * lam * (lam * h) ** 2

    def test_extreme_rates_and_times_give_finite_values_without_warnings(self):
        rng = random.Random(8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(2000):
                lam = 10.0 ** rng.uniform(-300.0, 300.0)
                t = 10.0 ** rng.uniform(-2.0, 6.0) / lam
                n = rng.randint(2, 8)
                got = nfold_exponential_convolution(lam, n, t, t / rng.randint(100, 400))
                assert math.isfinite(got) and got >= 0.0, (lam, n, t)
            assert nfold_exponential_convolution(1e300, 3, 1.0, 1e-3) == 0.0
