"""Pointwise expected backlog and the six cumulative candidates.

The frozen numbers in this file come from the oracles in this repository:
the truncated series for pointwise values, adaptive quadrature for
integrals, and direct rational arithmetic for the polynomial parts.
"""

import math
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backlog_lab.adjudicator import default_grid
from backlog_lab.closed_forms import (
    UNDEFINED_TERM,
    CandidateFormula,
    CumulativeValue,
    cumulative_expected_backlog,
    expected_backlog,
)
from backlog_lab import closed_forms, distributions
from backlog_lab.distributions import ModelParams, erlang_cdf, poisson_term
from backlog_lab.errors import AccuracyError, DomainError
from backlog_lab.oracles import cumulative_series_oracle

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

    @pytest.mark.parametrize("production, t", [(1000, 750.0), (700, 750.0), (713, 713.2)])
    def test_raw_power_sums_past_the_largest_double_diverge_like_the_exponential(
        self, production, t
    ):
        # The bracket's finite terms x^j/j! sum past the largest double
        # (math.fsum raises OverflowError there); that is the same divergence
        # as e^x overflowing at P = 5, t = 800.
        at_overflowing_exp = cumulative_expected_backlog(
            ModelParams(1.0, 5), 800.0, CandidateFormula.ORIGINAL
        ).value
        got = cumulative_expected_backlog(
            ModelParams(1.0, production), t, CandidateFormula.ORIGINAL
        ).value
        assert got == at_overflowing_exp == -math.inf

    def test_raw_power_terms_past_the_largest_double_diverge_too(self):
        # At lam t = 1000 the terms x^j/j! themselves overflow to inf, and the
        # bracket's three sums used to meet as inf - inf = nan.
        got = cumulative_expected_backlog(
            ModelParams(1.0, 500), 1000.0, CandidateFormula.ORIGINAL
        ).value
        assert got == -math.inf

    def test_seeded_sweep_finds_no_nan(self):
        # Half the points where the printed form overflows (about a fifth of
        # them gave nan before), half across the whole accepted domain.
        rng = random.Random(11)
        values = []
        for i in range(600):
            if i % 2:
                lam, t = 10 ** rng.uniform(-2, 2), 10 ** rng.uniform(0, 3.5)
                production = rng.randrange(3000)
            else:
                lam, t = 10 ** rng.uniform(-300, 300), 10 ** rng.uniform(-300, 300)
                production = int(10 ** rng.uniform(0, 5))
            if not math.isfinite(lam * t):
                continue
            params = ModelParams(lam, production)
            values.append(cumulative_expected_backlog(params, t, CandidateFormula.ORIGINAL).value)
        assert len(values) > 450
        assert -math.inf in values
        assert not any(math.isnan(v) for v in values)


def _run_cli_in_child(*argv):
    """The CLI in a child process under a 1 GB address-space limit and a
    20 s timeout, so that a run-away walk fails the test, not the machine."""

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")))
    )
    return subprocess.run(
        [sys.executable, "-m", "backlog_lab.cli", *argv],
        capture_output=True, env=env, timeout=20, preexec_fn=limit_memory,
    )


class TestHugeProduction:
    @pytest.mark.parametrize("argv, n_values", [
        (("eval",), 1),
        (("cumulative", "--candidate", "all"), len(ALL)),
    ])
    def test_costs_no_step_per_unit_of_stock(self, argv, n_values):
        # Only the non-zero Poisson terms are walked and summed: at P = 1e15
        # a step or a float per unit of stock would take days or petabytes.
        proc = _run_cli_in_child(
            *argv, "--production", "1000000000000000", "--lambda", "1", "--t", "1"
        )
        assert proc.returncode == 0, proc.stderr.decode()
        lines = proc.stdout.decode().splitlines()
        # eval prints the bare value; cumulative a CSV table, value in column 5.
        values = lines if n_values == 1 else [line.split(",")[4] for line in lines[1:]]
        assert len(values) == n_values
        assert all(math.isfinite(float(v)) for v in values)


class TestAnchorWithoutACorrectDigit:
    @pytest.mark.parametrize("argv", [
        # Walked the whole cutoff window, about 1.2e8 terms, past a minute.
        ("--lambda", "1e16", "--production", "10000000000000000", "--t", "1"),
        # About 1.2e9 terms in one list: killed for want of memory.
        ("--lambda", "1e12", "--production", "1000000010000000", "--t", "1000"),
    ])
    def test_is_refused_before_any_walk(self, argv):
        proc = _run_cli_in_child("eval", *argv)
        assert proc.returncode == 2, proc.stderr.decode()
        assert proc.stdout == b""
        assert b"no correct digit" in proc.stderr


class TestNotANumber:
    def test_overflowing_parts_that_cancel_are_refused(self):
        # P(P+1)/(2 lam) and the bracket over 2 lam are both inf: compact
        # and original-negexp form inf - inf, original keeps its -inf.
        params = ModelParams(3.06e-300, 156197)
        for candidate in (CandidateFormula.COMPACT, CandidateFormula.ORIGINAL_NEGEXP):
            with pytest.raises(AccuracyError, match="not a number"):
                cumulative_expected_backlog(params, 1.49e-162, candidate)
        original = cumulative_expected_backlog(params, 1.49e-162, CandidateFormula.ORIGINAL)
        assert original.value == -math.inf

    def test_every_candidate_gives_a_number_or_raises(self):
        # lam and t anywhere in 1e-300 .. 1e300, P below a million; 30 of
        # these values were NaN.
        rng = random.Random(1515)
        refused = 0
        for _ in range(4000):
            lam = 10.0 ** rng.uniform(-300.0, 300.0)
            t = 10.0 ** rng.uniform(-300.0, 300.0)
            params = ModelParams(lam, rng.randrange(10**6))
            for candidate in ALL:
                try:
                    value = cumulative_expected_backlog(params, t, candidate).value
                except (AccuracyError, DomainError):
                    refused += 1
                    continue
                assert not math.isnan(value), (params, t, candidate)
        assert refused < 4000 * len(ALL)


def _index_order_sum(monkeypatch, f, *args):
    """f(*args) with every _fsum a plain math.fsum over its terms in index order."""
    with monkeypatch.context() as m:
        m.setattr(closed_forms, "_fsum", math.fsum)
        m.setattr(distributions, "_fsum", math.fsum)
        return f(*args)


class TestLargestFirstSums:
    """Long windows go to math.fsum largest first, with the same bits."""

    @staticmethod
    def _sweep():
        rng = random.Random(14)
        for _ in range(100):
            x = math.exp(rng.uniform(math.log(1e-3), math.log(5e4)))
            lam = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
            t = x / lam
            x = lam * t
            spread = int(3.0 * math.sqrt(x))
            productions = {0, 1, 2, int(x / 2), int(x) - spread, int(x) + spread, int(2 * x)}
            for production in sorted(p for p in productions if p >= 0):
                yield lam, production, t

    def test_same_bits_as_index_order(self, monkeypatch):
        windowed = [c for c in ALL if c is not CandidateFormula.ORIGINAL]
        points = long = 0
        for lam, production, t in self._sweep():
            params = ModelParams(lam, production)
            calls = [(expected_backlog, params, t), (erlang_cdf, lam, max(production, 1), t)]
            calls += [(lambda *a: cumulative_expected_backlog(*a).value, params, t, c) for c in windowed]
            for f, *args in calls:
                got = f(*args).hex()
                assert got == _index_order_sum(monkeypatch, f, *args).hex(), (f, args)
            points += 1
            long += production > 100 and lam * t > 100
        # Enough of them past the cut-off, where the sums are sorted.
        assert points > 450 and long > 100

    @staticmethod
    def _fed(monkeypatch, f, *args):
        """The lists that math.fsum receives during f(*args)."""
        fed, fsum = [], math.fsum

        def spy(terms):
            fed.append(list(terms))
            return fsum(fed[-1])

        with monkeypatch.context() as m:
            m.setattr(math, "fsum", spy)
            f(*args)
        return fed

    @pytest.mark.parametrize("f, args", [
        # Lower windows, below lambda*t, and an upper tail window above it.
        (erlang_cdf, (1.0, 3000, 3031.8)),
        (expected_backlog, (ModelParams(30182.4, 30000), 1.0)),
        (expected_backlog, (ModelParams(3031.8, 3100), 1.0)),
    ])
    def test_long_windows_are_fed_largest_first(self, monkeypatch, f, args):
        # The window's near reach, then the same terms with the bound on the
        # rest appended for the certificate.
        near, certified = self._fed(monkeypatch, f, *args)
        assert len(near) > 500 and certified[:-1] == near
        assert near == sorted(near, reverse=True) and near[0] > near[len(near) // 2]

    @pytest.mark.parametrize("lam, n, t, sorted_", [
        # A 16-term window at a default-grid rate and time, rising throughout.
        (2.0, 16, 10.0, False),
        # Either side of the cut-off: 64 terms stay in index order, 65 do
        # not.  n stays below lambda*t, where the lower window is summed.
        (1.0, 64, 100.0, False),
        (1.0, 65, 100.0, True),
    ])
    def test_short_windows_are_fed_in_index_order(self, monkeypatch, lam, n, t, sorted_):
        (terms,) = self._fed(monkeypatch, erlang_cdf, lam, n, t)
        in_order = distributions._poisson_window(lam * t, 0, n)[1]
        assert len(terms) == n == len(in_order)
        assert terms == (sorted(in_order, reverse=True) if sorted_ else in_order)


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


class TestOffsetResiduals:
    """The failing bracket rows miss the truth by a closed-form residual.

    With x = lam t, wolfram and eq10 sit exactly P(P+1)/lam below the
    truth.  note carries one more term, 2P(P-1) p_{P-1}(x)/lam, so its
    residual depends on t.  Each is held to the series oracle's bound plus
    a few units of rounding at the scale of the values compared.
    """

    @staticmethod
    def residual(candidate, lam, production, t):
        offset = -production * (production + 1) / lam
        if candidate is CandidateFormula.NOTE:
            p_below = poisson_term(lam * t, production - 1)
            offset += 2 * production * (production - 1) * p_below / lam
        return offset

    def test_residuals_on_the_default_grid(self):
        grid = default_grid()
        checked = 0
        for lam in grid.lambdas:
            for production in grid.productions:
                params = ModelParams(lam, production)
                for t in grid.times:
                    truth = cumulative_series_oracle(params, t)
                    for candidate in (
                        CandidateFormula.WOLFRAM, CandidateFormula.EQ10, CandidateFormula.NOTE
                    ):
                        if candidate is CandidateFormula.NOTE and production < 2:
                            continue
                        value = cumulative_expected_backlog(params, t, candidate).value
                        want = self.residual(candidate, lam, production, t)
                        scale = max(abs(value), abs(truth.value), abs(want))
                        slack = truth.abs_error_bound + 4 * 2.0**-52 * scale
                        point = (candidate, lam, production, t)
                        assert abs(value - truth.value - want) <= slack, point
                        checked += 1
        assert checked == 3 * 6 * 6 * 2 + 3 * 5 * 6
