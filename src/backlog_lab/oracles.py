"""Independent numerical oracles for the backlog quantities.

None of these routines know anything about the closed-form candidates:
the series oracle sums the defining expectation term by term with a
certified geometric tail bound, the cumulative series oracle sums the
time integral of that expectation in one pass over the same Poisson
terms, the quadrature oracle integrates the series oracle in time, the
Monte Carlo estimator simulates Poisson paths and integrates the backlog
trajectory exactly, and the convolution routine builds the Erlang
density from repeated trapezoidal convolution of the exponential
density.  Agreement between any candidate and these routes is therefore
evidence, not circularity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    _ANCHOR_SWITCH,
    UNDERFLOW_FLOOR,
    ModelParams,
    _log_term,
    poisson_term,
)
from .errors import (
    AccuracyError,
    DomainError,
    ResourceLimitError,
    check_int,
    check_nonnegative,
    check_positive,
)
from .quadrature import adaptive_simpson

__all__ = [
    "EstimateWithError",
    "McConfig",
    "backlog_series_oracle",
    "cumulative_series_oracle",
    "cumulative_quadrature_oracle",
    "monte_carlo_cumulative",
    "nfold_exponential_convolution",
]

_MAX_SERIES_TERMS = 10_000_000

_EPS = 2.220446049250313e-16
_UNIT_ROUNDOFF = 0.5 * _EPS
# Smallest positive normal double; below it a term loses relative precision.
_SMALLEST_NORMAL = 2.2250738585072014e-308

# Half-width multiplier for a two-sided 99% normal confidence interval.
_Z99 = 2.5758293035489004


@dataclass(frozen=True)
class EstimateWithError:
    """A numerical estimate with an absolute error bound.

    For deterministic oracles the bound is a certified truncation bound
    plus the quadrature error charge; for the Monte Carlo estimator it is
    the 99% confidence half-width, which is statistical rather than
    certified.  n_effective counts terms, integrand evaluations, or paths.
    """

    value: float
    abs_error_bound: float
    n_effective: int
    notes: tuple[str, ...] = ()


def backlog_series_oracle(params: ModelParams, t: float, abs_tol: float = 1e-12) -> EstimateWithError:
    """Expected backlog by direct summation of sum_{j>=1} j p_{P+j}(lam t).

    Terms ride the one-step Poisson recurrence; once the index passes the
    modal term the remainder sum_{m>n} m p_m equals x sum_{m>=n} p_m and is
    bounded by the geometric majorant x p_n / (1 - x/(n+1)), which is what
    certifies truncation.  Stops as soon as the certificate drops below
    abs_tol; refuses after ten million terms.
    """
    t = check_nonnegative(t, "time")
    abs_tol = check_positive(abs_tol, "absolute tolerance")
    x = params.lam * t
    production = params.production
    if x == 0.0:
        return EstimateWithError(0.0, 0.0, 0)

    n = production + 1
    p = poisson_term(x, n)
    skipped = 0.0
    if p == 0.0 and x > n:
        # Opening terms underflowed but the series has not peaked yet; jump
        # to the modal index and charge the skipped stretch to the bound.
        n = int(x)
        p = poisson_term(x, n)
        skipped = float(n - production) ** 2 * UNDERFLOW_FLOOR

    total = 0.0
    comp = 0.0  # Neumaier compensation
    count = 0
    while True:
        term = (n - production) * p
        fresh = total + term
        if abs(total) >= abs(term):
            comp += (total - fresh) + term
        else:
            comp += (term - fresh) + total
        total = fresh
        count += 1

        if n + 1 > x:
            ratio = x / (n + 1)
            bound = skipped + (x * p / (1.0 - ratio) if p > 0.0 else 0.0)
            if bound <= abs_tol:
                value = total + comp
                rounding = 4.0 * _EPS * abs(value)
                return EstimateWithError(value, bound + rounding, count)
        if count >= _MAX_SERIES_TERMS:
            raise AccuracyError(
                f"series did not certify {abs_tol:g} within {_MAX_SERIES_TERMS} terms",
                best_estimate=total + comp,
            )
        n += 1
        p *= x / n
        if p < UNDERFLOW_FLOOR:
            p = 0.0


def _weighted_tail(i: int, rho: float) -> float:
    """sum_{j>=0} (i+j)(i+j-1) rho^j, in closed form, for 0 <= rho < 1."""
    d = 1.0 - rho
    return i * (i - 1) / d + 2.0 * i * rho / (d * d) + 2.0 * rho * rho / (d * d * d)


def cumulative_series_oracle(
    params: ModelParams, t: float, abs_tol: float = 1e-9
) -> EstimateWithError:
    """Cumulative expected backlog in one pass over the Poisson terms.

    Integrating the pointwise series term by term, with
    int_0^t p_m(lam u) du = P(N(t) >= m+1) / lam, gives

        C(t) = (1 / 2 lam) sum_{k >= P+2} (k-P)(k-P-1) p_k(x),    x = lam t,

    with x as formed in floating point, as every candidate forms it.  The
    terms ride the one-step recurrence: from p_0 = e^{-x} up to the 700
    switch, and beyond it from the modal term (through lgamma) both down to
    P+2 and up, after Fox and Glynn (1988), "Computing Poisson
    probabilities", CACM 31(4).  No term is skipped.  They are summed with
    Neumaier compensation.

    The bound is a certificate.  Past the mode, p_j <= p_k rho^{j-k} for
    j >= k with rho = x/(k+1), so the weighted tail from k on is at most
    p_k sum_j (k-P+j)(k-P+j-1) rho^j, summed in closed form.  Below the
    mode, the summand ratio ((k-P-2)/(k-P)) k/x on the way down is below 1
    and falls with k: a geometric majorant for the terms left below.  To
    both the bound adds an a-priori rounding charge (2K + 8) eps sum, for
    terms at most K recurrence steps from the anchor, and above the switch
    the error of the lgamma anchor.  Each walk stops only when its tail is
    below the unit roundoff times the running sum, far inside that charge,
    so the value is accurate to rounding whatever abs_tol is; abs_tol only
    gates certification.  Raises AccuracyError when the bound exceeds
    abs_tol or the walk passes _MAX_SERIES_TERMS terms.
    """
    t = check_nonnegative(t, "time")
    abs_tol = check_positive(abs_tol, "absolute tolerance")
    lam, production = params.lam, params.production
    x = check_nonnegative(lam * t, "lambda*t")
    if x == 0.0:
        return EstimateWithError(0.0, 0.0, 0)

    if x <= _ANCHOR_SWITCH:
        anchor, p_anchor, anchor_err = 0, math.exp(-x), 0.0
    else:
        anchor = int(x)
        # ln p = m ln x - x - lgamma(m+1) cancels terms of up to this size
        # (lgamma(m+1) <= m ln x); each is good to a few ulps of itself, 2.4
        # at worst against mpmath up to lambda*t = 1e7.
        anchor_err = 4.0 * _EPS * (2.0 * anchor * math.log(x) + x)
        if not anchor_err < 1.0:
            # Near lambda*t = 2e13 the anchor has no correct digit left.
            raise AccuracyError(f"the modal anchor at lambda*t = {x:g} has no correct digit")
        p_anchor = math.exp(_log_term(x, anchor))
    first = production + 2  # lowest index with a non-zero weight

    total = 0.0
    comp = 0.0  # Neumaier compensation
    count = 0

    def add(term: float) -> None:
        nonlocal total, comp, count
        fresh = total + term
        if abs(total) >= abs(term):
            comp += (total - fresh) + term
        else:
            comp += (term - fresh) + total
        total = fresh
        count += 1
        if count >= _MAX_SERIES_TERMS:
            raise AccuracyError(
                f"cumulative series did not converge within {_MAX_SERIES_TERMS} terms",
                best_estimate=(total + comp) / (2.0 * lam),
            )

    # Up from the anchor; terms below P+2 only carry the recurrence.
    k, p = anchor, p_anchor
    while True:
        i = k - production
        rho = x / (k + 1)
        if rho < 1.0:
            if p < _SMALLEST_NORMAL:
                # Every later term is smaller still; charge them at the
                # smallest normal, twice over for the rounding into it.
                up_tail = 2.0 * _SMALLEST_NORMAL * _weighted_tail(max(i, 2), rho)
                break
            up_tail = p * _weighted_tail(max(i, 2), rho)
            if up_tail <= _UNIT_ROUNDOFF * total:
                break
        add(i * (i - 1) * p if i > 0 else 0.0)
        k += 1
        p *= x / k
    reach = k - anchor

    # Down from the anchor, when it sits above P+2.
    down_tail = 0.0
    k, p = anchor, p_anchor
    while k > first:
        i = k - production
        s = (i - 2) / i * k / x
        tail = i * (i - 1) * p * s / (1.0 - s)
        if tail <= _UNIT_ROUNDOFF * total:
            down_tail = tail
            break
        p *= k / x
        k -= 1
        add((k - production) * (k - production - 1) * p)
    reach = max(reach, anchor - k)

    value = total + comp
    bound = (up_tail + down_tail + (2 * reach + 8) * _EPS * value + anchor_err * value) / (2.0 * lam)
    value /= 2.0 * lam
    if not bound <= abs_tol:
        raise AccuracyError(
            f"cumulative series bound {bound:.3g} exceeds {abs_tol:g}", best_estimate=value
        )
    return EstimateWithError(value, bound, count)


def cumulative_quadrature_oracle(
    params: ModelParams, t: float, abs_tol: float = 1e-9
) -> EstimateWithError:
    """Cumulative expected backlog by adaptive integration of the series oracle.

    The budget is split: the integrand is resolved to 0.45 abs_tol / t so its
    bias over [0, t] stays under 0.45 abs_tol, and the quadrature itself gets
    the other 0.45 abs_tol, leaving slack so the reported bound sits strictly
    below abs_tol.  At t = 0 the integral is exactly zero.
    """
    t = check_nonnegative(t, "time")
    abs_tol = check_positive(abs_tol, "absolute tolerance")
    if t == 0.0:
        return EstimateWithError(0.0, 0.0, 0)

    integrand_tol = 0.45 * abs_tol / t

    def integrand(u: float) -> float:
        return backlog_series_oracle(params, u, integrand_tol).value

    ramp = params.production / params.lam
    seeds = {t * k / 8.0 for k in range(1, 8)}
    if 0.0 < ramp < t:
        seeds.add(ramp)
    value, quad_err, n_evals = adaptive_simpson(
        integrand, 0.0, t, 0.45 * abs_tol, knots=sorted(seeds)
    )
    return EstimateWithError(value, quad_err + integrand_tol * t, n_evals)


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo settings: path count and an unsigned 64-bit master seed."""

    n_paths: int
    seed: int

    def __post_init__(self):
        check_int(self.n_paths, "path count", 1)
        check_int(self.seed, "seed", 0, 2**64 - 1)


def monte_carlo_cumulative(params: ModelParams, t: float, config: McConfig) -> EstimateWithError:
    """Simulate Poisson demand paths and integrate the backlog exactly.

    Interarrival gaps are -ln(U)/lam with U in (0, 1]; for each path the
    integral of (N(u) - P)^+ over [0, t] telescopes to
    sum over arrivals k > P of (t - tau_k)^+, so there is no time
    discretization at all.  Paths are laid out as consecutive counter
    blocks of a Philox stream keyed by the master seed, which makes the
    result a pure function of (seed, n_paths, params, t) regardless of
    how the work is scheduled.  The reported bound is the 99% confidence
    half-width.
    """
    t = check_nonnegative(t, "time")
    n_paths = config.n_paths
    notes: tuple[str, ...] = ("ci-unreliable",) if n_paths < 100 else ()
    if t == 0.0:
        return EstimateWithError(0.0, 0.0, n_paths, notes)

    lam = params.lam
    production = params.production
    x = lam * t
    draws_per_path = max(4, int(math.ceil(x + 10.0 * math.sqrt(x) + 30.0)))

    gen = np.random.Generator(np.random.Philox(key=config.seed))
    contributions = np.empty(n_paths, dtype=np.float64)
    rows_per_chunk = max(1, 8_000_000 // draws_per_path)

    start = 0
    while start < n_paths:
        count = min(rows_per_chunk, n_paths - start)
        u = gen.random((count, draws_per_path))
        epochs = np.cumsum(-np.log1p(-u) / lam, axis=1)
        if draws_per_path > production:
            chunk = np.maximum(t - epochs[:, production:], 0.0).sum(axis=1)
        else:
            chunk = np.zeros(count)
        # Paths whose fixed block of draws ran out before t continue on a
        # dedicated per-path stream; with the margin in draws_per_path this
        # is astronomically rare, but correctness should not rely on that.
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

    value = float(contributions.mean())
    if n_paths > 1:
        half_width = _Z99 * float(contributions.std(ddof=1)) / math.sqrt(n_paths)
    else:
        half_width = math.inf
    return EstimateWithError(value, half_width, n_paths, notes)


def nfold_exponential_convolution(lam: float, n: int, t: float, grid_step: float) -> float:
    """n-fold convolution of the exponential density, by iterated trapezoid.

    All folds live on one uniform grid over [0, t] (the step is snapped so
    the grid lands exactly on t); each fold is a discrete convolution with
    endpoint half-weights.  The result converges to the n-stage arrival
    density with error O(grid_step^2).  Grids beyond 1e8 points are refused.
    """
    lam = check_positive(lam, "rate")
    check_int(n, "fold count", 2, 8)
    t = check_positive(t, "time")
    grid_step = float(grid_step)
    if not (0.0 < grid_step <= t / 100.0):
        raise DomainError(f"grid step must lie in (0, t/100], got {grid_step!r}")
    m = round(t / grid_step)
    if m + 1 > 100_000_000:
        raise ResourceLimitError(f"grid of {m + 1} points exceeds the 1e8-point ceiling")
    h = t / m

    grid = np.linspace(0.0, t, m + 1)
    base = lam * np.exp(-lam * grid)
    cur = base.copy()
    for _ in range(n - 1):
        full = np.convolve(cur, base)[: m + 1]
        cur = h * (full - 0.5 * cur[0] * base - 0.5 * base[0] * cur)
    return float(cur[-1])
