"""Adaptive Simpson integration."""

import math

import pytest

from backlog_lab.errors import AccuracyError, DomainError
from backlog_lab.quadrature import adaptive_simpson


class TestAdaptiveSimpson:
    def test_evaluation_budget_raises_with_best_estimate(self):
        # A million oscillations over [0, 1] need far more panels than the
        # budget allows at this tolerance.
        with pytest.raises(AccuracyError, match="20000 evaluations") as info:
            adaptive_simpson(lambda x: math.sin(1e6 * x), 0.0, 1.0, 1e-12)
        assert info.value.best_estimate is not None

    def test_exact_for_cubics(self):
        value, bound, n_evals = adaptive_simpson(lambda x: x**3, 0.0, 1.0, 1e-12)
        assert value == pytest.approx(0.25, abs=1e-15)
        assert n_evals >= 5

    def test_sine_over_half_period(self):
        value, bound, _ = adaptive_simpson(math.sin, 0.0, math.pi, 1e-12)
        assert abs(value - 2.0) < 1e-12
        assert bound <= 1e-12

    def test_exponential_with_tight_budget(self):
        value, bound, _ = adaptive_simpson(math.exp, 0.0, 1.0, 1e-13)
        assert abs(value - (math.e - 1.0)) < 1e-13

    def test_empty_interval(self):
        assert adaptive_simpson(math.exp, 2.0, 2.0, 1e-9) == (0.0, 0.0, 0)

    def test_reversed_interval_rejected(self):
        with pytest.raises(DomainError):
            adaptive_simpson(math.exp, 1.0, 0.0, 1e-9)

    @pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan])
    def test_bad_tolerance_rejected(self, tol):
        with pytest.raises(DomainError):
            adaptive_simpson(math.exp, 0.0, 1.0, tol)

    def test_kink_handled_through_knot(self):
        # |x - 1/3| has a corner; seeding the knot there keeps the
        # subdivision from chasing it blindly.
        f = lambda x: abs(x - 1.0 / 3.0)
        exact = 5.0 / 18.0
        value, bound, _ = adaptive_simpson(f, 0.0, 1.0, 1e-12, knots=(1.0 / 3.0,))
        assert abs(value - exact) < 1e-12

    def test_reported_bound_covers_true_error(self):
        for f, a, b, truth in [
            (math.exp, 0.0, 2.0, math.exp(2.0) - 1.0),
            (lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, math.pi / 4.0),
        ]:
            value, bound, _ = adaptive_simpson(f, a, b, 1e-10)
            assert abs(value - truth) <= max(bound, 1e-10)

    def test_exhaustion_raises_with_best_estimate(self):
        """An impossible budget with a tiny depth cap must fail loudly but
        still surrender the partial answer."""
        with pytest.raises(AccuracyError) as exc:
            adaptive_simpson(math.exp, 0.0, 1.0, 1e-15, max_depth=2)
        best = exc.value.best_estimate
        assert best == pytest.approx(math.e - 1.0, abs=1e-6)

    def test_knots_outside_interval_ignored(self):
        value, _, _ = adaptive_simpson(math.sin, 0.0, 1.0, 1e-11, knots=(-5.0, 7.0))
        assert value == pytest.approx(1.0 - math.cos(1.0), abs=1e-11)
