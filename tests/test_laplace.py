"""Transform images, the numerical forward transform, and inversion.

Gaver-Stehfest tolerances in this file are pinned to measured method
truncation: the scheme's own error on L{t} at order 14 is 3.6e-7 of the
value (checked in 60-digit arithmetic), so no double-precision run can do
better, and the assertions below say so explicitly instead of wishing.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backlog_lab.closed_forms import expected_backlog
from backlog_lab.distributions import ModelParams, erlang_density, poisson_term
from backlog_lab.errors import AccuracyError, DomainError
from backlog_lab.laplace import (
    INVERSION_T_MIN,
    InversionConfig,
    _stehfest_weights_exact,
    forward_transform,
    image_backlog_prob,
    image_corollary_form,
    image_cumulative_backlog,
    image_expected_backlog,
    invert_gaver_stehfest,
    stehfest_weights,
)
from backlog_lab.oracles import cumulative_quadrature_oracle


class TestImages:
    def test_backlog_prob_trivial_points(self):
        assert image_backlog_prob(ModelParams(1.0, 0), 0, 1.0) == pytest.approx(0.5, rel=1e-15)
        assert image_backlog_prob(ModelParams(1.0, 1), 1, 1.0) == pytest.approx(0.125, rel=1e-15)

    def test_backlog_prob_known_value(self):
        # (2/3)^3 / 3, confirmed by numerically transforming the matching
        # probability mass.
        assert image_backlog_prob(ModelParams(2.0, 3), 0, 1.0) == pytest.approx(
            0.09876543209876541, rel=1e-14
        )

    def test_expected_backlog_image(self):
        assert image_expected_backlog(ModelParams(1.0, 0), 1.0) == pytest.approx(1.0, rel=1e-15)
        assert image_expected_backlog(ModelParams(1.0, 1), 1.0) == pytest.approx(0.5, rel=1e-15)
        assert image_expected_backlog(ModelParams(2.0, 2), 0.5) == pytest.approx(
            5.120000000000001, rel=1e-14
        )

    def test_cumulative_image_is_expected_over_s(self):
        assert image_cumulative_backlog(ModelParams(1.0, 0), 1.0) == pytest.approx(1.0, rel=1e-15)
        assert image_cumulative_backlog(ModelParams(1.0, 1), 1.0) == pytest.approx(0.5, rel=1e-15)
        assert image_cumulative_backlog(ModelParams(1.0, 2), 2.0) == pytest.approx(
            1.0 / 72.0, rel=1e-14
        )

    @given(
        lam=st.floats(min_value=0.05, max_value=50.0),
        production=st.integers(min_value=0, max_value=20),
        s=st.floats(min_value=1e-3, max_value=100.0),
    )
    @settings(max_examples=300)
    def test_corollary_identity(self, lam, production, s):
        """The geometric-series rewrite must agree to near machine level."""
        params = ModelParams(lam, production)
        a = image_corollary_form(params, s)
        b = image_expected_backlog(params, s)
        assert a == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize("s", [0.0, -1.0, math.nan])
    def test_rejects_bad_s(self, s):
        params = ModelParams(1.0, 1)
        for fn in (
            lambda: image_backlog_prob(params, 0, s),
            lambda: image_expected_backlog(params, s),
            lambda: image_cumulative_backlog(params, s),
            lambda: image_corollary_form(params, s),
        ):
            with pytest.raises(DomainError):
                fn()

    def test_rejects_bad_backlog_level(self):
        with pytest.raises(DomainError):
            image_backlog_prob(ModelParams(1.0, 1), -1, 1.0)


class TestStehfestWeights:
    def test_order_four_integers(self):
        assert stehfest_weights(4) == (-2.0, 26.0, -48.0, 24.0)

    @pytest.mark.parametrize("order", range(4, 21, 2))
    def test_exact_sum_identities(self, order):
        """sum of the weights is 0 and sum of weight/k is exactly 1; both
        only hold on the rationals, where cancellation costs nothing."""
        exact = _stehfest_weights_exact(order)
        assert sum(exact, Fraction(0)) == 0
        assert sum((w / k for k, w in enumerate(exact, start=1)), Fraction(0)) == 1

    def test_float_conversion_matches_exact(self):
        exact = _stehfest_weights_exact(14)
        floats = stehfest_weights(14)
        assert floats == tuple(float(w) for w in exact)

    @pytest.mark.parametrize("order", [3, 5, 2, 0, 22, -4])
    def test_rejects_bad_orders(self, order):
        with pytest.raises(DomainError):
            stehfest_weights(order)

    def test_weights_are_cached(self):
        assert stehfest_weights(14) is stehfest_weights(14)


class TestInversionConfig:
    def test_defaults(self):
        cfg = InversionConfig()
        assert cfg.method == "gaver-stehfest"
        assert cfg.order == 14
        assert INVERSION_T_MIN == 1e-3

    @pytest.mark.parametrize("order", [3, 22, 0])
    def test_rejects_bad_order(self, order):
        with pytest.raises(DomainError):
            InversionConfig(order=order)

    def test_rejects_unknown_method(self):
        with pytest.raises(DomainError):
            InversionConfig(method="talbot")


class TestForwardTransform:
    def test_constant_original(self):
        est = forward_transform(lambda t: 1.0, 2.0, 1e-10)
        assert abs(est.value - 0.5) < 1e-10
        assert est.abs_error_bound < 1e-10

    def test_linear_original(self):
        est = forward_transform(lambda t: t, 1.0, 1e-10, growth_degree=1)
        assert abs(est.value - 1.0) < 1e-10

    def test_quadratic_original(self):
        # integral_0^inf t^2 e^{-t} dt = 2.
        est = forward_transform(lambda t: t * t, 1.0, 1e-10, growth_degree=2)
        assert abs(est.value - 2.0) <= est.abs_error_bound < 1e-10

    def test_tail_that_cannot_be_bounded_is_refused(self):
        # At s = 1e-16 the truncation point would pass 1e15 before the
        # tail majorant fell below the tolerance.
        with pytest.raises(AccuracyError, match="transform tail"):
            forward_transform(lambda t: 1.0, 1e-16, 1e-9)

    def test_exponential_original(self):
        lam, s = 1.3, 0.7
        est = forward_transform(lambda t: lam * math.exp(-lam * t), s, 1e-9)
        truth = lam / (lam + s)
        assert abs(est.value - truth) < 1e-9
        assert abs(est.value - truth) <= est.abs_error_bound + 1e-12

    def test_expected_backlog_against_its_image(self):
        params = ModelParams(1.0, 2)
        est = forward_transform(
            lambda t: expected_backlog(params, t),
            1.0,
            1e-8,
            growth_degree=1,
            growth_coeff=1.0,
        )
        assert abs(est.value - 0.25) < 1e-8

    def test_probability_mass_against_its_image(self):
        lam, production, j, s = 2.0, 3, 0, 1.0
        est = forward_transform(lambda t: poisson_term(lam * t, production + j), s, 1e-9)
        truth = image_backlog_prob(ModelParams(lam, production), j, s)
        assert abs(est.value - truth) < 1e-8

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            forward_transform(lambda t: 1.0, 0.0, 1e-9)
        with pytest.raises(DomainError):
            forward_transform(lambda t: 1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            forward_transform(lambda t: 1.0, 1.0, 1e-9, growth_degree=3)


class TestGaverStehfest:
    def test_linear_pair(self):
        # Method truncation alone is 3.6e-7 relative at order 14 and 3.4e-8
        # at order 16 for this pair; the bounds below sit just above that.
        img = lambda s: 1.0 / (s * s)
        v16 = invert_gaver_stehfest(img, 2.0, InversionConfig(order=16))
        assert abs(v16 - 2.0) / 2.0 < 1e-7
        v14 = invert_gaver_stehfest(img, 2.0, InversionConfig(order=14))
        assert abs(v14 - 2.0) / 2.0 < 1e-6

    def test_decay_pair(self):
        img = lambda s: 1.0 / (s + 1.0)
        truth = math.exp(-1.0)
        v16 = invert_gaver_stehfest(img, 1.0, InversionConfig(order=16))
        assert abs(v16 - truth) / truth < 1e-6
        v14 = invert_gaver_stehfest(img, 1.0, InversionConfig(order=14))
        assert abs(v14 - truth) / truth < 1e-5

    def test_cumulative_image_at_default_order(self):
        params = ModelParams(1.0, 1)
        got = invert_gaver_stehfest(
            lambda s: image_cumulative_backlog(params, s), 1.0, None
        )
        truth = cumulative_quadrature_oracle(params, 1.0, 1e-10).value
        assert abs(got - truth) < 1e-5
        # Regression pin for the default configuration.
        assert got == pytest.approx(0.13212020647983569, rel=1e-12)

    def test_rejects_time_below_floor(self):
        with pytest.raises(DomainError):
            invert_gaver_stehfest(lambda s: 1.0 / s, 1e-4, InversionConfig())

    def test_expected_backlog_image_at_order_20(self):
        # The stated 1e-5 needs order 20 here; the default order leaves
        # about 3e-5 of method truncation.
        params = ModelParams(2.0, 4)
        got = invert_gaver_stehfest(
            lambda s: image_expected_backlog(params, s), 2.0, InversionConfig(order=20)
        )
        assert abs(got - expected_backlog(params, 2.0)) < 1e-5


class TestErlangRecovery:
    """Inverting (lam/(lam+s))^n should give back the Erlang density."""

    def test_recovery_where_the_order_can_deliver(self):
        # Order 18 meets 1e-4 relative on the early window; later times are
        # bounded separately below because method truncation grows with the
        # dimensionless product lam*t.
        cfg = InversionConfig(order=18)
        lam = 1.0
        for n in range(1, 7):
            img = lambda s: (lam / (lam + s)) ** n
            for t in (0.5, 0.6, 0.8, 1.0):
                got = invert_gaver_stehfest(img, t, cfg)
                truth = erlang_density(lam, n, t)
                assert abs(got - truth) / truth < 1e-4, (n, t)

    def test_recovery_envelope_over_full_window(self):
        cfg = InversionConfig(order=18)
        lam = 1.0
        for n in range(1, 7):
            img = lambda s: (lam / (lam + s)) ** n
            for t in (0.5, 1.0, 2.0, 3.0, 5.0):
                got = invert_gaver_stehfest(img, t, cfg)
                truth = erlang_density(lam, n, t)
                assert abs(got - truth) / truth < 2e-3, (n, t)

    def test_rate_scale_collapse(self):
        """The inversion error depends on lam*t only: doubling the rate at
        half the time must reproduce the same relative deviation."""
        cfg = InversionConfig(order=18)
        n = 4
        for t in (0.5, 1.0, 2.0):
            img1 = lambda s: (1.0 / (1.0 + s)) ** n
            img2 = lambda s: (2.0 / (2.0 + s)) ** n
            rel1 = (
                invert_gaver_stehfest(img1, 2.0 * t, cfg) - erlang_density(1.0, n, 2.0 * t)
            ) / erlang_density(1.0, n, 2.0 * t)
            rel2 = (
                invert_gaver_stehfest(img2, t, cfg) - erlang_density(2.0, n, t)
            ) / erlang_density(2.0, n, t)
            assert rel2 == pytest.approx(rel1, abs=1e-9)


class TestRoundTrip:
    def test_matches_quadrature_at_low_stock(self):
        """Inverted cumulative image vs direct integration, absolute 1e-5.

        At order 18 this literal bound holds for stock levels 0 and 1; the
        bend the integrand develops at t = P/lam pushes higher stock past
        it, which the scaled envelope below covers."""
        cfg = InversionConfig(order=18)
        for lam in (0.5, 1.0, 2.0):
            for production in (0, 1):
                params = ModelParams(lam, production)
                for t in (0.5, 1.0, 2.0, 5.0, 10.0):
                    gs = invert_gaver_stehfest(
                        lambda s: image_cumulative_backlog(params, s), t, cfg
                    )
                    q = cumulative_quadrature_oracle(params, t, 1e-9)
                    assert abs(gs - q.value) < 1e-5, (lam, production, t)

    def test_demand_scaled_envelope(self):
        cfg = InversionConfig(order=18)
        for lam in (0.5, 1.0, 2.0):
            for production in range(0, 5):
                params = ModelParams(lam, production)
                for t in (0.5, 1.0, 2.0, 5.0, 10.0):
                    gs = invert_gaver_stehfest(
                        lambda s: image_cumulative_backlog(params, s), t, cfg
                    )
                    q = cumulative_quadrature_oracle(params, t, 1e-9)
                    scale = max(1.0, lam * t * t / 2.0)
                    assert abs(gs - q.value) < 1e-4 * scale, (lam, production, t)
