"""Series, quadrature, Monte Carlo, and convolution ground-truth engines."""

import math
import os
import random
import subprocess
import sys
import time
import types
import warnings
from pathlib import Path

import pytest

import backlog_lab.oracles
from backlog_lab.adjudicator import default_grid
from backlog_lab.closed_forms import CandidateFormula, cumulative_expected_backlog, expected_backlog
from backlog_lab.distributions import UNDERFLOW_FLOOR, ModelParams, erlang_density, poisson_term
from backlog_lab.errors import AccuracyError, DomainError, ResourceLimitError
from backlog_lab.oracles import (
    EstimateWithError,
    _moment_walk,
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


def _lazy_descend(x, k, p, hi, lo):
    """p_{hi-1}, p_{hi-2}, .., p_lo from p = p_k by p_{n-1} = p_n * n / x,
    ending before the first term below the floor: a generator, so that the
    per-term walk below may stop early."""
    if hi <= lo:
        return
    for n in range(k, hi - 1, -1):
        p *= n / x
        if p < UNDERFLOW_FLOOR:
            return
    yield p
    for n in range(hi - 1, lo, -1):
        p *= n / x
        if p < UNDERFLOW_FLOOR:
            return
        yield p


def _per_term_walk(x, production, r, scale, _descend=_lazy_descend):
    """_moment_walk with a _weighted_tail call, a math.perm weight and a
    len(terms) budget test per term: the loop that the written-out one must
    match bit for bit.  Its other names are looked up in backlog_lab.oracles
    (see below), so that a patched _MAX_SERIES_TERMS reaches it too."""
    if x == 0.0:
        return EstimateWithError(0.0, 0.0, 0)
    first = production + r  # lowest index with a non-zero weight
    anchor, anchor_err = _anchor(x)
    # A margin on _log_term(x, k) as a bound on ln p_k, for its own
    # rounding and the anchor's error.
    slack = 1.0 + 2.0 * anchor_err
    if x > _REFUSAL_GATE and _fewest_terms(x, production, r, anchor, slack) >= _MAX_SERIES_TERMS:
        raise AccuracyError(f"series at lambda*t = {x:g} needs more than {_MAX_SERIES_TERMS} terms")
    start = max(anchor, first)
    p_start = poisson_term(x, start)

    terms = array("d")  # the weighted terms, for math.fsum: 80 MB at the budget
    total = 0.0  # their plain running sum, for the stop tests only
    floor_tail = 0.0  # a tail charged under the smallest normal, over scale
    k, p = start, p_start
    while True:
        i = k - production
        rho = x / (k + 1)
        if rho < 1.0:
            if p < _SMALLEST_NORMAL:
                # Every later term is smaller still.  Charge them at this
                # term's own bound, or at the smallest normal if that is
                # less, twice over for the rounding into it.  Below the
                # smallest normal the charge over scale is formed in logs,
                # so that it does not flush to 0 before the division, and
                # is never less than the smallest double: the tail is not 0.
                weight = 2.0 * _weighted_tail(i, r, rho)
                log_p = _log_term(x, k) + slack
                if log_p >= math.log(_SMALLEST_NORMAL):
                    up_tail = _SMALLEST_NORMAL * weight
                else:
                    up_tail = 0.0
                    log_tail = log_p + math.log(weight) - math.log(scale)
                    floor_tail = max(math.exp(log_tail), math.ulp(0.0))
                break
            up_tail = p * _weighted_tail(i, r, rho)
            if up_tail <= _UNIT_ROUNDOFF * total:
                break
        terms.append(math.perm(i, r) * p)
        total += terms[-1]
        if len(terms) >= _MAX_SERIES_TERMS:
            raise _over_budget(terms, scale)
        k += 1
        p *= x / k
    reach = k - anchor

    # Down from the anchor, when it sits above P+r (and so is the start).
    # If the terms fall under the floor first, the last majorant covers them.
    k, p = anchor, p_start
    down_tail = 0.0
    for q in _descend(x, anchor, p, anchor, first):
        i = k - production
        s = (i - r) / i * k / x
        down_tail = math.perm(i, r) * p * s / (1.0 - s)
        if down_tail <= _UNIT_ROUNDOFF * total:
            break
        k, p = k - 1, q
        terms.append(math.perm(i - 1, r) * p)
        total += terms[-1]
        if len(terms) >= _MAX_SERIES_TERMS:
            raise _over_budget(terms, scale)
    if k == first:
        down_tail = 0.0
    reach = max(reach, anchor - k)

    value = math.fsum(terms)
    if r == 1 and anchor == 0:
        rounding = 3.0 * math.sqrt(reach + 1) * _EPS * value
    else:
        rounding = (2 * reach + 8) * _EPS * value
    bound = (up_tail + down_tail + rounding + anchor_err * value) / scale + floor_tail
    return EstimateWithError(value / scale, bound, len(terms))


_per_term_walk = types.FunctionType(
    _per_term_walk.__code__, vars(backlog_lab.oracles), None, _per_term_walk.__defaults__
)


def _walk_outcome(walk, *args):
    """What a walk returns, or the message and best estimate it raises, as exact text."""
    try:
        est = walk(*args)
    except AccuracyError as exc:
        best = exc.best_estimate
        return ("raises", str(exc), None if best is None else best.hex())
    return (est.value.hex(), est.abs_error_bound.hex(), est.n_effective, est.notes)


class TestMomentWalk:
    """The written-out walk against the per-term one: the same bits everywhere."""

    @staticmethod
    def _calls():
        rng = random.Random(1515)
        for _ in range(200):
            x = 10.0 ** rng.uniform(-3.0, math.log10(3e5))
            lam = 10.0 ** rng.uniform(-1.0, 1.0)
            spread = int(3.0 * math.sqrt(x))
            for production in sorted({0, 1, int(x / 2), max(int(x) - spread, 0), int(x), int(x) + spread, int(2 * x)}):
                yield x, production, 1, 1.0
                yield x, production, 2, 2.0 * lam
        # The floor branch: every term under the smallest normal at a tiny
        # rate, and terms that fall under the floor at once.
        for t in (1.0, 1e100, 1e120, 1e200):
            yield 1e-300 * t, 1, 2, 2e-300
            yield 1e-300 * t, 1, 1, 1.0
        for production in (30, 200, 500):
            yield 5.0, production, 1, 1.0
            yield 5.0, production, 2, 10.0

    def test_same_bits_as_the_per_term_walk(self):
        calls = list(self._calls())
        assert len(calls) >= 2000
        above = 0
        for args in calls:
            assert _walk_outcome(_moment_walk, *args) == _walk_outcome(_per_term_walk, *args), args
            above += args[0] > 700.0
        assert 500 < above < len(calls) - 500

    def test_same_bits_past_the_refusal_gate(self):
        # The first of the two points whose hexes the oracle tests pin; the
        # other, 5.2 million terms at lambda*t = 1e11, has its value, bound
        # and term count pinned there.
        args = (1.2e10, 6_000_000_000, 1, 1.0)
        assert _walk_outcome(_moment_walk, *args) == _walk_outcome(_per_term_walk, *args)

    @pytest.mark.parametrize("budget", [1, 2, 3, 7, 40, 600, 1000])
    def test_budget_runs_out_at_the_same_term(self, monkeypatch, budget):
        # Upward only (P above the mode), both ways (P = 0 past the switch).
        # At (2500.0, 0, r) the upward walk takes 420-450 terms and the whole
        # walk 826, so a budget of 600 runs out on the way down.
        monkeypatch.setattr(backlog_lab.oracles, "_MAX_SERIES_TERMS", budget)
        raised = 0
        for args in [(5.0, 2, 1, 1.0), (5.0, 2, 2, 3.0), (2500.0, 0, 1, 1.0), (2500.0, 0, 2, 4.0),
                     (2500.0, 2600, 1, 1.0), (3e4, 100, 2, 1.0)]:
            outcome = _walk_outcome(_moment_walk, *args)
            assert outcome == _walk_outcome(_per_term_walk, *args), args
            raised += outcome[0] == "raises"
        assert raised >= 1


class TestSeriesOracle:
    def test_zero_stock_is_poisson_mean(self):
        for lam, t in [(0.5, 1.0), (2.0, 3.0), (5.0, 0.2)]:
            est = backlog_series_oracle(ModelParams(lam, 0), t)
            assert abs(est.value - lam * t) <= 1e-12
            assert est.abs_error_bound <= 1e-12

    def test_unit_point(self):
        est = backlog_series_oracle(ModelParams(1.0, 1), 1.0)
        assert est.value == pytest.approx(math.exp(-1.0), abs=2e-12)

    def test_deep_tail_is_tiny_but_positive(self):
        est = backlog_series_oracle(ModelParams(2.0, 5), 0.1)
        assert 0.0 < est.value < 1e-5
        assert est.value == pytest.approx(7.709526875438649e-08, rel=1e-6)

    def test_zero_time(self):
        est = backlog_series_oracle(ModelParams(3.0, 2), 0.0)
        assert est.value == 0.0

    def test_agrees_with_closed_form_on_grid(self):
        worst = 0.0
        for lam in (0.5, 1.0, 2.0, 5.0):
            for production in range(0, 11):
                params = ModelParams(lam, production)
                for t in (0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
                    est = backlog_series_oracle(params, t)
                    worst = max(worst, abs(est.value - expected_backlog(params, t)))
        assert worst < 1e-10

    def test_certified_bound_is_honest(self):
        # The closed form is the cross-check: the reported bound must cover
        # the actual gap with room to spare.
        for lam, production, t in [(1.0, 1, 1.0), (2.0, 4, 3.0), (0.5, 8, 10.0)]:
            params = ModelParams(lam, production)
            est = backlog_series_oracle(params, t)
            assert abs(est.value - expected_backlog(params, t)) <= max(est.abs_error_bound, 1e-13)

    def test_term_cap_raises_accuracy_error(self, monkeypatch):
        monkeypatch.setattr(backlog_lab.oracles, "_MAX_SERIES_TERMS", 3)
        with pytest.raises(AccuracyError):
            backlog_series_oracle(ModelParams(2.0, 3), 5.0)

    def test_log_uniform_sweep_within_bound_of_mpmath(self):
        """lam t log-uniform over [1e-3, 1e5], across the 700 anchor switch,
        with P at 0, 1, x/2, x and 2x, and two deep-tail points.  The
        reference is the 50-digit value rounded to a double, so half an ulp
        of it is allowed on top.  Up to the switch the walk sums to
        rounding, so the value is also held to 1e-13 relative while the
        reference is not near the subnormals."""
        rng = random.Random(20232)
        points = [(1.0, 5, 0.1), (0.503, 211, 209.77)]
        for lam in (0.3, 1.0, 7.0):
            for _ in range(40):
                x = 10.0 ** rng.uniform(-3.0, 5.0)
                t = x / lam
                for production in sorted({0, 1, int(x / 2), int(x), int(2 * x)}):
                    points.append((lam, production, t))
        for lam, production, t in points:
            est = backlog_series_oracle(ModelParams(lam, production), t)
            truth = references.expected_backlog(lam * t, production)
            err = abs(est.value - truth)
            assert err <= est.abs_error_bound + 0.5 * math.ulp(truth), (
                lam, production, t, est, truth
            )
            if lam * t <= 700.0 and truth > 1e-290:
                assert err <= 1e-13 * truth, (lam, production, t, est, truth)

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

    @pytest.mark.parametrize("spread", [3, 5])
    def test_hopeless_walk_above_the_mode_is_refused_before_any_term(self, spread):
        # With P above lambda*t the walk's lower bound comes from the
        # geometric tail above P; without it P = x + 5 sqrt(x) walked for
        # seconds before it gave up with a wrong best estimate.
        x = 1e13
        with pytest.raises(AccuracyError, match="needs more than") as info:
            backlog_series_oracle(ModelParams(1.0, int(x + spread * math.sqrt(x))), x)
        assert info.value.best_estimate is None

    def test_non_finite_demand_is_domain_error(self):
        with pytest.raises(DomainError):
            backlog_series_oracle(ModelParams(1e200, 0), 1e200)

    def test_within_the_term_budget_above_the_gate_is_not_refused(self):
        # About 1.8 million terms, above the lambda*t where the a-priori
        # refusal is computed; pinned from a run without it.
        est = backlog_series_oracle(ModelParams(1.0, 6_000_000_000), 1.2e10)
        assert est.value.hex() == "0x1.65a21060ab0ccp+32"
        assert est.abs_error_bound.hex() == "0x1.72265814e5a99p+21"
        assert est.n_effective == 1_808_065


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
                    est = cumulative_series_oracle(ModelParams(lam, production), t)
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

    def test_returns_a_bound_of_any_size(self):
        # At lam t = 1e4 the lgamma anchor alone costs about 1e-10 relative,
        # past what the adjudicator certifies; the oracle reports it.
        est = cumulative_series_oracle(ModelParams(1.0, 0), 1e4)
        assert est.value == pytest.approx(5e7, rel=1e-9)
        assert est.abs_error_bound > 1e-9

    def test_tiny_rate_is_certified(self):
        # Every term lies under the smallest normal; the tail is charged at
        # the first term's own bound over 2 lam, not the smallest normal's
        # 4.45e-8.  C(t) is about (lam t)^3 / (6 lam): below the smallest
        # double at t = 1, 1.7e-241 at t = 1e120.
        lam = 1e-300
        est = cumulative_series_oracle(ModelParams(lam, 1), 1.0)
        assert est.value == 0.0
        assert 0.0 < est.abs_error_bound <= 1e-9
        est = cumulative_series_oracle(ModelParams(lam, 1), 1e120)
        truth_log = 3.0 * math.log(lam * 1e120) - math.log(6.0 * lam)
        assert est.abs_error_bound <= 1e-9
        assert math.log(est.abs_error_bound) >= truth_log

    def test_term_cap_raises_accuracy_error(self, monkeypatch):
        monkeypatch.setattr(backlog_lab.oracles, "_MAX_SERIES_TERMS", 3)
        with pytest.raises(AccuracyError):
            cumulative_series_oracle(ModelParams(2.0, 3), 5.0)

    @pytest.mark.parametrize("t", [1e12, 1e13])
    def test_past_the_term_budget_is_refused_before_any_term(self, t):
        # These need about 16.5 sqrt(lam t) terms, past ten million.
        with pytest.raises(AccuracyError, match="needs more than") as info:
            cumulative_series_oracle(ModelParams(1.0, 0), t)
        assert info.value.best_estimate is None

    def test_within_the_term_budget_is_not_refused(self):
        # About 5.2 million terms, inside the budget, so the walk runs; the
        # value is pinned from a run of the walk without the a-priori check.
        est = cumulative_series_oracle(ModelParams(1.0, 0), 1e11)
        assert est.value.hex() == "0x1.0f17429ac7da0p+72"
        assert est.abs_error_bound.hex() == "0x1.3e68512587020p+64"
        assert est.n_effective == 5_219_431

    @pytest.mark.parametrize("t", [1e14, 1e300])
    def test_anchor_without_a_correct_digit_is_refused(self, t):
        with pytest.raises(AccuracyError, match="no correct digit"):
            cumulative_series_oracle(ModelParams(1.0, 0), t)

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

        def recording(params, u):
            est = series(params, u)
            bounds.append(est.abs_error_bound)
            return est

        monkeypatch.setattr(backlog_lab.oracles, "backlog_series_oracle", recording)
        est = cumulative_quadrature_oracle(ModelParams(100.0, 50), 10.0, 1e-9)
        worst, integrand_tol = max(bounds), 0.45 * 1e-9 / 10.0
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
    def test_path_count_past_the_ceiling_is_refused_before_allocating(self, monkeypatch):
        params = ModelParams(1.0, 1)
        start = time.monotonic()
        with pytest.raises(ResourceLimitError, match="1e8-path ceiling"):
            monte_carlo_cumulative(params, 1.0, McConfig(n_paths=10**12, seed=0))
        assert time.monotonic() - start < 0.5
        # The ceiling itself runs; one path past it does not.
        monkeypatch.setattr(backlog_lab.oracles, "_MAX_ARRAY", 1000)
        est = monte_carlo_cumulative(params, 1.0, McConfig(n_paths=1000, seed=0))
        assert est.n_effective == 1000
        with pytest.raises(ResourceLimitError):
            monte_carlo_cumulative(params, 1.0, McConfig(n_paths=1001, seed=0))

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

    def test_horizon_near_the_largest_double_keeps_a_finite_half_width(self):
        # lam t = 1, but each contribution is of the order of t = 1e300,
        # whose square overflows unless t is first divided out.
        est = monte_carlo_cumulative(ModelParams(1e-300, 1), 1e300, McConfig(n_paths=100, seed=1))
        assert 0.0 < est.value < 1e301
        assert 0.0 < est.abs_error_bound < 1e301

    @pytest.mark.parametrize("lam, t", [(1e300, 1e300), (1.0, 1e120)])
    def test_lambda_t_infinite_or_past_one_chunk_of_draws_is_refused(self, lam, t):
        with pytest.raises(DomainError):
            monte_carlo_cumulative(ModelParams(lam, 1), t, McConfig(n_paths=10, seed=1))

    def test_small_sample_flagged(self):
        est = monte_carlo_cumulative(ModelParams(1.0, 2), 2.0, McConfig(n_paths=50, seed=1))
        assert "ci-unreliable" in est.notes


def _allocating_monte_carlo(params, t, config):
    """The estimator as it stood with a fresh array per step, as a reference.

    Verbatim but for the draw count, which it reads through the module's
    helper so that a test may shorten both at once.
    """
    import numpy as np

    n_paths = config.n_paths
    notes = ("ci-unreliable",) if n_paths < 100 else ()
    if t == 0.0:
        return EstimateWithError(0.0, 0.0, n_paths, notes)

    lam = params.lam
    production = params.production
    x = lam * t
    draws_per_path = backlog_lab.oracles._mc_draws_per_path(x)

    gen = np.random.Generator(np.random.Philox(key=config.seed))
    contributions = np.empty(n_paths, dtype=np.float64)
    rows_per_chunk = 8_000_000 // draws_per_path

    start = 0
    while start < n_paths:
        count = min(rows_per_chunk, n_paths - start)
        u = gen.random((count, draws_per_path))
        epochs = np.cumsum(-np.log1p(-u) / lam, axis=1)
        chunk = np.maximum(t - epochs[:, production:], 0.0).sum(axis=1)
        for local in np.nonzero(epochs[:, -1] < t)[0]:
            path = start + int(local)
            extra = np.random.default_rng(
                np.random.SeedSequence(entropy=config.seed, spawn_key=(path, 1))
            )
            last = float(epochs[local, -1])
            arrivals = draws_per_path
            while True:
                nxt = last + -math.log1p(-extra.random()) / lam
                if nxt > t:
                    break
                arrivals += 1
                if arrivals > production:
                    chunk[local] += t - nxt
                last = nxt
        contributions[start : start + count] = chunk
        start += count

    unit = 1.0
    if not 2.0**-400 < t < 2.0**400:
        unit = math.ldexp(1.0, math.frexp(t)[1])
        contributions /= unit
    value = unit * float(contributions.mean())
    if n_paths > 1:
        half_width = 2.5758293035489004 * (unit * float(contributions.std(ddof=1))) / math.sqrt(n_paths)
    else:
        half_width = math.inf
    return EstimateWithError(value, half_width, n_paths, notes)


class TestMonteCarloInPlace:
    """The in-place chunk loop gives the bits of the allocating one."""

    @pytest.mark.parametrize("lam, production, t, n_paths, seed", [
        (1.0, 2, 2.0, 10**5, 7),  # one chunk of the allocating loop
        (1.0, 2, 2.0, 10**6, 3),  # six, the last one partial
        (500 / 140, 267, 138.6, 10**5, 5),  # lambda t = 495: ten
        (1.0, 900, 500.0, 2000, 1),  # P at least the draws per path: 0.0
        (1.0, 0, 2.0, 1, 9),  # one path: an infinite half-width
        (1e-300, 1, 1e300, 100, 1),  # t divided out as a power of two
    ])
    def test_bit_identical_to_the_allocating_loop(self, lam, production, t, n_paths, seed):
        params, config = ModelParams(lam, production), McConfig(n_paths=n_paths, seed=seed)
        got = monte_carlo_cumulative(params, t, config)
        assert got == _allocating_monte_carlo(params, t, config)
        if production == 900:
            assert got.value == 0.0
        if n_paths == 1:
            assert got.abs_error_bound == math.inf

    @pytest.mark.parametrize("production", [0, 2])
    def test_paths_past_their_block_continue_on_their_own_streams(self, monkeypatch, production):
        # One draw per path: about 86% of the paths see an arrival before
        # t = 2 and continue on their spawn_key=(path, 1) streams from that
        # epoch.  With P = 2 every contribution comes from those streams;
        # with P = 0 the epoch is also the clipped tail that overwrites it.
        monkeypatch.setattr(backlog_lab.oracles, "_mc_draws_per_path", lambda x: 1)
        params, config = ModelParams(1.0, production), McConfig(n_paths=20_000, seed=4)
        got = monte_carlo_cumulative(params, 2.0, config)
        assert got == _allocating_monte_carlo(params, 2.0, config)
        truth = cumulative_quadrature_oracle(params, 2.0, 1e-10).value
        assert abs(got.value - truth) <= got.abs_error_bound

    @staticmethod
    def _peak_bytes(params, t, n_paths):
        import tracemalloc

        # numpy reports its buffers to tracemalloc.
        monte_carlo_cumulative(params, t, McConfig(n_paths=10, seed=1))
        tracemalloc.start()
        try:
            monte_carlo_cumulative(params, t, McConfig(n_paths=n_paths, seed=1))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_many_chunks_reuse_one_block(self):
        # 754 draws per path: 87 chunks of 347 paths.  The allocating loop,
        # a fresh array per step in chunks of 8e6 draws, peaked at 244 MiB.
        n_paths = 30_000
        peak = self._peak_bytes(ModelParams(1.0, 250), 500.0, n_paths)
        block = backlog_lab.oracles._MC_BLOCK_DRAWS
        assert peak < 1.25 * 8 * (block + n_paths) < 1.25 * 8 * 8_000_000

    def test_a_small_run_sizes_its_block_to_its_paths(self):
        assert self._peak_bytes(ModelParams(1.0, 1), 2.0, 1000) < 2**20


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
