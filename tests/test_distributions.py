"""Poisson terms, exponential and Erlang densities, Erlang CDF."""

import math
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backlog_lab import distributions
from backlog_lab.adjudicator import SweepGrid
from backlog_lab.closed_forms import expected_backlog
from backlog_lab.distributions import (
    _LOG_CUTOFF,
    MAX_PRODUCTION,
    UNDERFLOW_FLOOR,
    ModelParams,
    _anchor,
    _log_term,
    _poisson_window,
    erlang_cdf,
    erlang_density,
    poisson_term,
)
from backlog_lab.errors import AccuracyError, DomainError, check_nonnegative
from backlog_lab.laplace import invert_gaver_stehfest
from backlog_lab.oracles import nfold_exponential_convolution
from backlog_lab.quadrature import adaptive_simpson

# The benchmark's mpmath references (50 digits), which import nothing
# from backlog_lab.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import references  # noqa: E402


def _term_by_its_own_walk(x, n):
    """p_n(x) walked from the anchor to n alone: e^{-x} up to lambda*t =
    700, the modal term through lgamma above it, with the same cutoff and
    underflow floor.  The reference the one-walk window must equal bit for
    bit."""
    if x == 0.0:
        return 1.0 if n == 0 else 0.0
    if n > 0 and _log_term(x, n) < _LOG_CUTOFF:
        return 0.0
    if x <= 700.0:
        k, p = 0, math.exp(-x)
    else:
        k = int(x)
        p = math.exp(_log_term(x, k))
    while k < n:
        k += 1
        p *= x / k
        if p < UNDERFLOW_FLOOR:
            return 0.0
    while k > n:
        p *= k / x
        k -= 1
        if p < UNDERFLOW_FLOOR:
            return 0.0
    return p


def _edges(x, log_level):
    """Lowest and highest n whose log term reaches log_level, by scanning."""
    mode = int(x)
    lo = 0
    while _log_term(x, lo) < log_level:
        lo += 1
    hi = mode
    while _log_term(x, hi + 1) >= log_level:
        hi += 1
    return lo, hi


def _window_sweep_points():
    """Seeded lambda*t in [1e-3, 1e5] and just past 700 and 740, each with
    its mode, both cutoff edges and both underflow edges."""
    rng = random.Random(4)
    xs = [10.0 ** rng.uniform(-3.0, 5.0) for _ in range(40)]
    xs += [700.0, math.nextafter(700.0, 1e3), 700.5, 739.5, 740.0, 740.25, 741.0, 3551.0]
    for x in xs:
        edges = [int(x)]
        for level in (_LOG_CUTOFF, math.log(UNDERFLOW_FLOOR)):
            edges.extend(_edges(x, level))
        yield x, edges


class TestModelParams:
    def test_accepts_positive_rate_and_integer_stock(self):
        p = ModelParams(2.5, 3)
        assert p.lam == 2.5
        assert p.production == 3

    def test_coerces_rate_to_float(self):
        assert isinstance(ModelParams(2, 0).lam, float)

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_rate(self, lam):
        with pytest.raises(DomainError):
            ModelParams(lam, 1)

    @pytest.mark.parametrize("production", [-1, 0.5, "3"])
    def test_rejects_bad_stock(self, production):
        with pytest.raises(DomainError):
            ModelParams(1.0, production)

    def test_production_ceiling(self):
        # The largest power of ten at which P(P+1) is a finite double.
        assert math.isfinite(float(MAX_PRODUCTION * (MAX_PRODUCTION + 1)))
        assert ModelParams(1.0, MAX_PRODUCTION).production == MAX_PRODUCTION
        with pytest.raises(DomainError, match="at most"):
            ModelParams(1.0, MAX_PRODUCTION + 1)

    def test_frozen(self):
        p = ModelParams(1.0, 1)
        with pytest.raises(Exception):
            p.lam = 2.0


class TestArgumentChecks:
    @pytest.mark.parametrize("call", [
        lambda: ModelParams(10**400, 1),
        lambda: poisson_term(10**400, 3),
        lambda: erlang_cdf(1.0, 2, 10**400),
        lambda: expected_backlog(ModelParams(1.0, 1), 10**400),
        lambda: SweepGrid((10**400,), (1,), (1.0,)),
        lambda: invert_gaver_stehfest(lambda s: 1 / s, 10**400),
        lambda: adaptive_simpson(lambda t: 1.0, 0.0, 10**400, 1e-9),
        lambda: adaptive_simpson(lambda t: 1.0, -10**400, 0.0, 1e-9),
        lambda: nfold_exponential_convolution(1.0, 2, 1.0, 10**400),
    ], ids=["ModelParams", "poisson_term", "erlang_cdf", "expected_backlog", "SweepGrid",
            "invert_gaver_stehfest", "adaptive_simpson-b", "adaptive_simpson-a", "nfold_exponential_convolution"])
    def test_int_too_large_for_a_float_is_a_domain_error(self, call):
        # Each raised OverflowError from float() before the check could.
        with pytest.raises(DomainError, match="finite"):
            call()

    def test_knot_too_large_for_a_float_lies_outside_the_interval(self):
        # It raised OverflowError; like any knot outside (a, b) it is ignored.
        plain = adaptive_simpson(math.exp, 0.0, 1.0, 1e-9)
        assert adaptive_simpson(math.exp, 0.0, 1.0, 1e-9, knots=(10**400,)) == plain

    def test_negative_zero_is_zero(self):
        value = check_nonnegative(-0.0, "time")
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


class TestPoissonTerm:
    """Regularized terms e^{-x} x^n / n!."""

    def test_empty_process_certainty(self):
        assert poisson_term(0.0, 0) == 1.0

    def test_zero_mean_higher_terms_vanish(self):
        assert poisson_term(0.0, 3) == 0.0

    def test_first_term_is_plain_exponential(self):
        assert poisson_term(1.0, 0) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_known_value(self):
        # e^{-2} 2^3 / 3!, cross-checked through the log-gamma route.
        assert poisson_term(2.0, 3) == pytest.approx(0.18044704431548358, rel=1e-14)

    @pytest.mark.parametrize("args", [(-1.0, 0), (1.0, -1), (math.nan, 0)])
    def test_rejects_bad_arguments(self, args):
        with pytest.raises(DomainError):
            poisson_term(*args)

    def test_no_overflow_at_extreme_arguments(self):
        # x up to 1e4 and n up to 1e5 must stay finite and inside [0, 1].
        for x, n in [(1e4, 10_000), (1e4, 100_000), (5e3, 1), (700.0, 0)]:
            v = poisson_term(x, n)
            assert math.isfinite(v)
            assert 0.0 <= v <= 1.0

    def test_underflow_floor_returns_exact_zero(self):
        # e^{-800} is far below the representable floor used here.
        assert poisson_term(800.0, 0) == 0.0

    def test_floor_constant_is_subnormal_cutoff(self):
        assert UNDERFLOW_FLOOR == 1e-320

    @given(
        x=st.floats(min_value=1e-3, max_value=1e3),
        n=st.integers(min_value=1, max_value=300),
    )
    @settings(max_examples=300)
    def test_one_step_recurrence(self, x, n):
        """p_n = p_{n-1} x / n wherever both terms carry real mass."""
        prev = poisson_term(x, n - 1)
        cur = poisson_term(x, n)
        if prev > 1e-300 and cur > 1e-300:
            assert cur == pytest.approx(prev * x / n, rel=1e-13)

    @given(x=st.floats(min_value=0.0, max_value=2e3))
    @settings(max_examples=60, deadline=None)
    def test_partial_sums_approach_one(self, x):
        n_top = int(x + 20.0 * math.sqrt(x) + 20.0)
        total = math.fsum(poisson_term(x, n) for n in range(n_top + 1))
        assert total > 1.0 - 1e-10
        # Above the log-space switch each term carries its own ~1e-15
        # relative error, so a thousand-term sum may overshoot 1 slightly.
        assert total <= 1.0 + 1e-11

    def test_mass_window_at_large_mean(self):
        x = 1e4
        lo = int(x - 20 * math.sqrt(x))
        hi = int(x + 20 * math.sqrt(x))
        total = math.fsum(poisson_term(x, n) for n in range(lo, hi + 1))
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_anchor_switch_is_seamless(self):
        # The recurrence route just below the switch and the log-space route
        # just above it must agree with the direct log-space formula.
        for x in (699.5, 700.0, 700.5):
            n = 700
            direct = poisson_term(x, n)
            ref = math.exp(n * math.log(x) - x - math.lgamma(n + 1))
            assert direct == pytest.approx(ref, rel=1e-11)

    def test_log_gamma_against_exact_factorials(self):
        """The accuracy budget of the log-space route rests on lgamma."""
        for n in range(1, 21):
            exact = math.log(math.factorial(n))
            assert math.lgamma(n + 1) == pytest.approx(exact, rel=1e-13)


class TestPoissonWindow:
    """One walk per block of terms, bit for bit the per-index walks."""

    def test_terms_match_their_own_walks(self):
        for x, edges in _window_sweep_points():
            for n in {0, 1, 2}.union(*(range(max(e - 12, 0), e + 13) for e in edges)):
                assert poisson_term(x, n).hex() == _term_by_its_own_walk(x, n).hex(), (x, n)

    def test_windows_match_their_own_walks(self):
        for x, edges in _window_sweep_points():
            # Short windows across each edge and the mode, and one window
            # over the whole cutoff window and past both its ends, checked
            # at its ends and every 97th index.
            windows = [(max(e - 6, 0), e + 7) for e in edges]
            windows.append((0, edges[2] + 5))
            for lo, hi in windows:
                first, terms = _poisson_window(x, lo, hi)
                assert lo <= first and first + len(terms) <= hi
                assert all(v > 0.0 for v in terms)
                dense = [0.0] * (first - lo) + terms + [0.0] * (hi - first - len(terms))
                checked = set(range(lo, min(hi, lo + 13))) | set(range(max(hi - 13, lo), hi))
                checked.update(range(lo, hi, 97))
                for n in checked:
                    assert dense[n - lo].hex() == _term_by_its_own_walk(x, n).hex(), (x, lo, hi, n)

    def test_prefix_matches_terms(self):
        # The block from index 0 that the closed forms sum, at every index.
        for x in (0.0, 3.5, 699.9, 700.5, 740.5, 3e3):
            count = int(x) + 200
            first, terms = _poisson_window(x, 0, count)
            dense = [0.0] * first + terms + [0.0] * (count - first - len(terms))
            assert [v.hex() for v in dense] == [poisson_term(x, n).hex() for n in range(count)]

    def test_large_blocks_match_mpmath(self):
        # Each term past the switch carries the lgamma anchor's relative
        # error, at most 4 eps (2 m ln x + x): 3.7e-10 at lambda*t = 2e4,
        # 5.7e-10 at 3e4, where the bracket of expected_backlog is about P.
        assert abs(erlang_cdf(1.0, 20_000, 2e4) - references.poisson_tail(2e4, 20_000)) <= 1e-9
        value = expected_backlog(ModelParams(1.0, 60_000), 3e4)
        assert abs(value - references.expected_backlog(3e4, 60_000)) <= 1e-9 * 60_000

    @pytest.mark.parametrize("x, lo, hi", [(1.0, 0, 0), (2000.0, 0, 0), (0.0, 0, 0), (5.0, 4, 2)])
    def test_range_without_an_index_is_empty(self, x, lo, hi):
        # (1.0, 0, 0) gave p_0, and (2000.0, 0, 0) a ValueError from lgamma.
        assert _poisson_window(x, lo, hi) == (lo, [])

    def test_cutoff_needs_no_walk_to_the_far_end(self):
        # p_0 at lambda*t = 1e300 lies under the cutoff; a walk from the mode
        # would never end.
        assert poisson_term(1e300, 0) == 0.0
        assert _poisson_window(1e300, 0, 5) == (0, [])

    def test_anchor_without_a_correct_digit_is_refused(self):
        # The truth is about 4.0e-9; the anchor used to give 1.0.
        with pytest.raises(AccuracyError, match="no correct digit"):
            poisson_term(1e16, 10**16)
        with pytest.raises(AccuracyError, match="no correct digit"):
            erlang_cdf(1.0, 10**14, 1e14)
        with pytest.raises(AccuracyError, match="no correct digit"):
            expected_backlog(ModelParams(1.0, 10**16), 1e16)
        # A block the cutoff flushes whole needs no anchor and is not refused.
        assert poisson_term(1e16, 0) == 0.0
        assert _poisson_window(1e16, 2 * 10**16, 2 * 10**16 + 5) == (2 * 10**16, [])

    def test_anchor_with_a_correct_digit_is_not_refused(self):
        # The anchor's error crosses 1 near lambda*t = 2e13.
        assert 0.0 < poisson_term(1e13, 10**13) < 1.3e-7


class TestExpDensity:
    """The exponential interarrival density is the one-stage Erlang density."""

    def test_density_at_origin_equals_rate(self):
        assert erlang_density(1.0, 1, 0.0) == 1.0
        assert erlang_density(2.0, 1, 0.0) == 2.0

    def test_unit_rate_unit_time(self):
        assert erlang_density(1.0, 1, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_rejects_non_positive_rate(self):
        with pytest.raises(DomainError):
            erlang_density(0.0, 1, 1.0)

    def test_rejects_negative_time(self):
        with pytest.raises(DomainError):
            erlang_density(1.0, 1, -0.1)


class TestErlangDensity:
    @pytest.mark.parametrize("lam,t", [(0.5, 0.0), (1.0, 0.7), (3.0, 2.0)])
    def test_order_one_reduces_to_exponential(self, lam, t):
        assert erlang_density(lam, 1, t) == pytest.approx(lam * math.exp(-lam * t), rel=1e-15)

    def test_second_order_unit_point(self):
        assert erlang_density(1.0, 2, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_known_value(self):
        # 2^3 (0.5)^2 e^{-1} / 2! collapses to e^{-1} as well.
        assert erlang_density(2.0, 3, 0.5) == pytest.approx(0.36787944117144233, rel=1e-14)

    def test_rejects_order_zero(self):
        with pytest.raises(DomainError):
            erlang_density(1.0, 0, 1.0)

    def test_zero_time(self):
        assert erlang_density(1.0, 1, 0.0) == 1.0
        assert erlang_density(1.0, 2, 0.0) == 0.0

    def test_overflow_safe_at_large_order(self):
        v = erlang_density(1000.0, 100_000, 100.0)
        assert math.isfinite(v)
        assert v >= 0.0

    @pytest.mark.parametrize("n,want", [(8, 1.0071347018946414e-117), (2, 5.07595889754899e-132)])
    def test_keeps_digits_where_the_poisson_term_flushes(self, n, want):
        # At lam t = 1000 the term e^{-1000} 1000^{n-1} / (n-1)! lies under
        # the floor, while lam = 1e300 lifts the density far above it; the
        # references are 50-digit mpmath values rounded to doubles.
        assert erlang_density(1e300, n, 1e-297) == pytest.approx(want, rel=1e-12)


class TestErlangCdf:
    def test_zero_time_is_zero(self):
        for lam, n in [(0.5, 1), (1.0, 3), (7.0, 40)]:
            assert erlang_cdf(lam, n, 0.0) == 0.0

    @pytest.mark.parametrize("t", [0.1, 0.5, 1.0, 3.0])
    def test_order_one_is_exponential_cdf(self, t):
        assert erlang_cdf(1.0, 1, t) == pytest.approx(-math.expm1(-t), rel=1e-14)

    def test_known_value(self):
        # 1 - 2 e^{-1}, confirmed by integrating the density over [0, 1].
        assert erlang_cdf(1.0, 2, 1.0) == pytest.approx(0.26424111765711533, rel=1e-14)

    @given(
        lam=st.floats(min_value=0.01, max_value=100.0),
        n=st.integers(min_value=1, max_value=200),
        t=st.floats(min_value=0.0, max_value=50.0),
    )
    @settings(max_examples=200)
    def test_stays_in_unit_interval(self, lam, n, t):
        v = erlang_cdf(lam, n, t)
        assert 0.0 <= v <= 1.0

    @given(
        lam=st.floats(min_value=0.1, max_value=20.0),
        n=st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=100)
    def test_monotone_in_time(self, lam, n):
        ts = [0.0, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0]
        vals = [erlang_cdf(lam, n, t) for t in ts]
        # The 1 - sum formulation leaves one-ulp noise in the deep lower tail.
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))

    @given(
        lam=st.floats(min_value=0.1, max_value=20.0),
        t=st.floats(min_value=0.0, max_value=20.0),
    )
    @settings(max_examples=100)
    def test_non_increasing_in_order(self, lam, t):
        # Waiting for more arrivals can only push the CDF down.
        vals = [erlang_cdf(lam, n, t) for n in range(1, 12)]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("x", [0.7, 35.0, 699.9, 700.5, 740.5, 3e3])
    def test_is_the_correctly_rounded_sum_of_the_terms(self, x):
        # Summed on the short side of x: the complement of p_0 .. p_{n-1} up
        # to n = x, and above it p_n, p_{n+1}, .. to the first term that is
        # 0.0, past the mode, where every later one is 0.0 too.
        for n in (1, 2, int(x) + 1, int(x + 10 * math.sqrt(x)) + 3):
            if n > x:
                terms = [poisson_term(x, n)]
                while terms[-1] != 0.0:
                    terms.append(poisson_term(x, n + len(terms)))
                expected = min(max(math.fsum(terms), 0.0), 1.0)
            else:
                expected = min(max(1.0 - math.fsum(poisson_term(x, j) for j in range(n)), 0.0), 1.0)
            assert erlang_cdf(1.0, n, x) == expected

    @pytest.mark.parametrize("f", [erlang_cdf, erlang_density])
    def test_overflowing_lambda_t_is_domain_error(self, f):
        with pytest.raises(DomainError, match="lambda\\*t"):
            f(1e300, 2, 1e300)

    def test_matches_quadrature_of_density(self):
        """Spot check of the CDF against integrating the density; the
        randomized hundred-point version lives in the acceptance suite."""
        for lam, n, t in [(1.0, 2, 1.0), (0.5, 4, 6.0), (3.0, 10, 5.0), (10.0, 30, 4.0)]:
            mode = n / lam
            sd = math.sqrt(n) / lam
            knots = sorted(
                {min(t, max(0.0, mode + c * sd)) for c in (-3, -1, 0, 1, 3)}
                | {t * k / 8 for k in range(1, 8)}
            )
            knots = tuple(k for k in knots if 0.0 < k < t)
            val, bound, _ = adaptive_simpson(
                lambda u: erlang_density(lam, n, u), 0.0, t, 1e-10, knots=knots
            )
            assert abs(val - erlang_cdf(lam, n, t)) < 1e-8


class TestShortSide:
    """Above lambda*t each Poisson tail is summed upwards, on its short side."""

    @staticmethod
    def _points():
        rng = random.Random(15)
        for _ in range(400):
            x = 10.0 ** rng.uniform(-3.0, math.log10(5e4))
            ks = {math.floor(x) + 1, math.ceil(x + math.sqrt(x)), math.ceil(x + 3 * math.sqrt(x)), math.ceil(2 * x + 2)}
            for k in sorted(ks):
                yield x, k

    def test_matches_mpmath_above_lambda_t(self):
        # Each term carries the anchor's relative error past the switch and
        # a few ulps from its recurrence steps below it.  Terms under the
        # floor are flushed to 0.0, and subnormal terms keep few digits, so
        # a sum near the floor may also be off by an absolute 1e-317; a sum
        # of 0.0 only where the truth is below the floor.  The lower-sum
        # forms fail here: expected_backlog goes negative and erlang_cdf
        # returns a rounding residue of 1 where the truth is tiny.
        checked = 0
        for x, k in self._points():
            rel = _anchor(x)[1] + 1e-14
            backlog = expected_backlog(ModelParams(x, k), 1.0)
            assert backlog >= 0.0, (x, k, backlog)
            for value, truth in (
                (backlog, references.expected_backlog(x, k)),
                (erlang_cdf(1.0, k, x), references.poisson_tail(x, k)),
            ):
                assert abs(value - truth) <= rel * truth + 1e-317, (x, k, value, truth)
                assert value != 0.0 or truth < UNDERFLOW_FLOOR, (x, k, truth)
                checked += truth > 1e-300
        assert checked > 1500

    def test_upper_tail_below_the_floor_is_zero(self):
        # The negative and nonzero values the lower-sum forms gave here.
        assert expected_backlog(ModelParams(30182.4, 60365), 1.0) == 0.0
        assert erlang_cdf(1.0, 6064, 3031.8) == 0.0

    @pytest.mark.parametrize("t", [1.0, 1000.0])
    def test_stage_count_past_the_largest_double(self, t):
        # No index that large becomes a float: past the switch the lower
        # window's log term raised OverflowError here.
        assert erlang_cdf(1.0, 10**400, t) == 0.0


class TestNearReach:
    """A long short-side window is summed only to its near reach where a
    certificate shows that the rest cannot move the rounded sum, and walked
    in full where it does not: the full window's bits either way."""

    @staticmethod
    def _calls():
        rng = random.Random(26)
        points = [(1e-300, 1.0)]  # p_2 already under the floor: the walk ends first
        for _ in range(200):
            x = 10.0 ** rng.uniform(-3.0, 5.0)
            lam = 10.0 ** rng.uniform(-1.0, 1.0)
            points.append((lam, x / lam))
        for lam, t in points:
            x = lam * t
            ks = {1, int(x / 2) + 1, int(2 * x) + 1}
            ks |= {max(round(x + c * math.sqrt(x)), 1) for c in (-10, -3, -1, 1, 3, 10)}
            for k in sorted(ks):
                yield expected_backlog, (ModelParams(lam, k), t)
                yield erlang_cdf, (lam, k, t)

    def _run(self, monkeypatch, stop_log):
        """Each call's hex, with _STOP_LOG at stop_log, and the number of
        calls that tried a certificate and kept the near sum or walked on."""
        events, hexes = [], []
        window, rest_bound = distributions._poisson_window, distributions._rest_bound

        def spy_window(*args):
            events.append("walk")
            return window(*args)

        def spy_bound(*args):
            events.append("bound")
            return rest_bound(*args)

        certified = walked_on = 0
        with monkeypatch.context() as m:
            m.setattr(distributions, "_STOP_LOG", stop_log)
            m.setattr(distributions, "_poisson_window", spy_window)
            m.setattr(distributions, "_rest_bound", spy_bound)
            for f, args in self._calls():
                events.clear()
                hexes.append(f(*args).hex())
                if "bound" in events:
                    certified += events.count("walk") == 1
                    walked_on += events.count("walk") == 2
        return hexes, certified, walked_on

    def test_same_bits_as_the_full_window(self, monkeypatch):
        # A near reach past every window walks each one in full.
        full, certified, _ = self._run(monkeypatch, 1e30)
        assert certified == 0 and len(full) > 2000
        hexes, certified, _ = self._run(monkeypatch, distributions._STOP_LOG)
        assert hexes == full
        assert certified > 1000

    @pytest.mark.parametrize("stop_log, least_certified", [(0.02, 0), (8.0, 200)])
    def test_a_failed_certificate_walks_the_full_window(self, monkeypatch, stop_log, least_certified):
        # A near reach of a few terms, or of four standard deviations: most
        # certificates fail, and those calls must walk on to the full
        # window's bits, as the others must where the near terms decide.
        full, _, _ = self._run(monkeypatch, 1e30)
        hexes, certified, walked_on = self._run(monkeypatch, stop_log)
        assert hexes == full
        assert walked_on > 1000 and certified >= least_certified

    def test_rest_bound_covers_the_terms_past_the_near_reach(self, monkeypatch):
        # delta against the exact sum of what the full window adds past the
        # near reach, |n-k|^r p_n as the walk forms them, in each long window.
        bounds = []
        rest_bound = distributions._rest_bound

        def spy_bound(x, k, r, above, near, terms, length):
            delta = rest_bound(x, k, r, above, near, terms, length)
            bounds.append((x, k, r, above, near, delta))
            return delta

        monkeypatch.setattr(distributions, "_rest_bound", spy_bound)
        for f, args in self._calls():
            f(*args)
        positive = 0
        for x, k, r, above, near, delta in bounds:
            if above:
                lo, hi = k, k + int(1000 + math.sqrt(1480.0 * x)) + 1
            else:
                lo, hi = 0, k
            start, terms = _poisson_window(x, *distributions._cutoff_range(x, lo, hi))
            past = range(k + near, hi) if above else range(0, k - near)
            rest = math.fsum(abs(n - k) ** r * p for n, p in enumerate(terms, start) if n in past)
            assert rest <= delta, (x, k, r, above, rest, delta)
            positive += rest > 0.0
        assert len(bounds) > 1500 and positive > 1500
