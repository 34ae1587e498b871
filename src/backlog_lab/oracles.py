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

On the convolution's uniform grid the exponential kernel factors as
e^{-lam (t_k - t_i)} = e^{-lam t_k} e^{lam t_i}, so each fold of the
iterate tilted by e^{lam t_k} is one running sum: O(n m) time for n folds
of an m-step grid, in two arrays of m + 1 floats, and no truncation error
for n <= 3.

Only the Monte Carlo estimator and the convolution routine use arrays;
each imports numpy on its first call, after its argument checks, so that
importing this module (and the package, and the CLI) does not load numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .distributions import (
    _ANCHOR_SWITCH,
    UNDERFLOW_FLOOR,
    ModelParams,
    _descend,
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

# Above the switch, the a-priori lower bounds on a series walk's length
# (_fewest_terms, _fewest_backlog_terms) count only indices k whose term
# p_k is at least the smallest normal double, e^{-L} with L = 708.4 (the
# downward test of _fewest_terms asks p_k > 2 eps / x^2, more up to
# x = 1e146).  By the Chernoff bounds p_k <= exp(-(x-k)^2 / 2x) below the
# mode and exp(-(k-x)^2 / (2x + 2(k-x)/3)) above it, such k lie within
# sqrt(2Lx) below x and 2L/3 + sqrt(2Lx) above it: at most 7.6 million
# indices at x = 1e10, short of the budget.  Below this lambda*t neither
# bound can refuse and the lgamma anchor keeps its digits (_anchor_error
# is 4.2e-4 at 1e10), so _refuse_hopeless is skipped there, which is
# always safe: the walks keep the budget themselves.
_REFUSAL_GATE = 1e10

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

    Terms ride the one-step Poisson recurrence from the anchor of
    poisson_term: p_0 = e^{-x} up to the 700 switch, where the sum starts
    at P+1; above it the modal term, from which the terms between P+1 and
    the mode are summed on the way down, out of the same walk as
    _poisson_window's.  There the summand ratio ((i-1)/i) k/x, i = k - P,
    falls with k, so the terms left below k are at most a geometric
    majorant, and the downward walk stops once that is at most abs_tol/4.
    Upwards, once the index passes the mode the remainder sum_{m>n} m p_m
    equals x sum_{m>=n} p_m and is bounded by x p_n / (1 - x/(n+1)).

    The bound is both majorants plus a rounding charge for terms at most
    K recurrence steps from the anchor: above the switch the worst case
    (2K + 8) eps value and the error of the lgamma anchor; below it
    3 sqrt(K) eps value, a random-walk model of the K roundings, about 2.5
    times the largest error seen in sweeps below the switch: the worst
    case would exceed the 1e-12 that acceptance criterion 1 holds the
    bound to at lambda*t = 100, so this part is not a certificate.  The
    upward walk stops when the
    bound fits in abs_tol or, if the charges leave no room, when its tail
    is below the unit roundoff of the sum; the bound may then exceed
    abs_tol.  Raises AccuracyError past ten million terms, and before any
    term where the lgamma anchor has no correct digit or the walk provably
    needs more terms than that.
    """
    t = check_nonnegative(t, "time")
    abs_tol = check_positive(abs_tol, "absolute tolerance")
    x = check_nonnegative(params.lam * t, "lambda*t")
    production = params.production
    if x == 0.0:
        return EstimateWithError(0.0, 0.0, 0)

    total = 0.0
    comp = 0.0  # Neumaier compensation
    count = 0

    def add(term: float) -> None:
        nonlocal total, comp, count
        if count >= _MAX_SERIES_TERMS:
            raise AccuracyError(
                f"series did not certify {abs_tol:g} within {_MAX_SERIES_TERMS} terms",
                best_estimate=total + comp,
            )
        fresh = total + term
        if abs(total) >= abs(term):
            comp += (total - fresh) + term
        else:
            comp += (term - fresh) + total
        total = fresh
        count += 1

    n = production + 1
    anchor, anchor_err = 0, 0.0
    if x > _ANCHOR_SWITCH:
        anchor = int(x)
        anchor_err = _anchor_error(x, anchor)
        if x > _REFUSAL_GATE:
            _refuse_hopeless(
                x, anchor_err,
                lambda: _fewest_backlog_terms(x, production, anchor, anchor_err, abs_tol),
            )
        n = max(n, anchor)
    p = poisson_term(x, n)

    # Down from the mode to P+1 (no steps unless the mode lies above P+1).
    lowest, down_tail = n, 0.0
    for q in _descend(x, n, p, n, production + 1):
        lowest -= 1
        i = lowest - production
        add(i * q)
        ratio = (i - 1) / i * lowest / x
        down_tail = i * q * ratio / (1.0 - ratio)
        if down_tail <= 0.25 * abs_tol:
            break

    while True:
        add((n - production) * p)
        if n + 1 > x:
            ratio = x / (n + 1)
            # A term under the floor is 0.0 here but may be up to the floor.
            up_tail = x * max(p, UNDERFLOW_FLOOR) / (1.0 - ratio)
            value = total + comp
            reach = max(n - anchor, anchor - lowest)
            if x > _ANCHOR_SWITCH:
                rounding = ((2 * reach + 8) * _EPS + anchor_err) * abs(value)
            else:
                rounding = 3.0 * math.sqrt(reach + 1) * _EPS * abs(value)
            # Certify abs_tol if the charges leave room; else sum to rounding.
            room = max(abs_tol - down_tail - rounding, _UNIT_ROUNDOFF * abs(value))
            if up_tail <= room or p == 0.0:
                return EstimateWithError(value, down_tail + up_tail + rounding, count)
        n += 1
        p *= x / n
        if p < UNDERFLOW_FLOOR:
            p = 0.0


def _anchor_error(x: float, anchor: int) -> float:
    """Relative error charged to the modal anchor exp(_log_term(x, anchor)).

    ln p = m ln x - x - lgamma(m+1) cancels terms of up to this size
    (lgamma(m+1) <= m ln x); each is good to a few ulps of itself, 2.4 at
    worst against mpmath up to lambda*t = 1e7.
    """
    return 4.0 * _EPS * (2.0 * anchor * math.log(x) + x)


def _refuse_hopeless(x: float, anchor_err: float, fewest_terms) -> None:
    """Raise AccuracyError, before any term, for a walk that cannot succeed.

    That is when the modal anchor has no correct digit (from about
    lambda*t = 2e13) or when fewest_terms(), a lower bound on the walk's
    length, reaches the term budget.  Called only above _REFUSAL_GATE.
    """
    if not anchor_err < 1.0:
        raise AccuracyError(f"the modal anchor at lambda*t = {x:g} has no correct digit")
    if fewest_terms() >= _MAX_SERIES_TERMS:
        raise AccuracyError(f"series at lambda*t = {x:g} needs more than {_MAX_SERIES_TERMS} terms")


def _fewest_backlog_terms(
    x: float, production: int, anchor: int, anchor_err: float, abs_tol: float
) -> int:
    """A lower bound on the terms backlog_series_oracle adds above the switch.

    Terms are at least p_low, as in _fewest_terms, while they keep their
    relative precision, so only p_low at least the smallest normal counts:
    such a term is also above the floor, where the walks stop.  Upwards
    from max(P+1, anchor) the tail x p_n / (1 - x/(n+1)) is at least
    x p_n, and the room it is tested against at most max(abs_tol,
    u |value|) with |value| below 4 E[(N-P)^+] <= 4x.  Downwards from the anchor to P+1 the tail is at least
    (i-1) p_k k / x, i = k - P, against abs_tol / 4.  Both fall with the
    distance from the anchor, so bisection finds where each may stop.
    """
    slack = 1.0 + 2.0 * anchor_err

    def p_low(k: int) -> float:
        p = math.exp(_log_term(x, k) - slack)
        return p if p >= _SMALLEST_NORMAL else 0.0

    start = max(production + 1, anchor)
    room = max(abs_tol, 2.0 * _EPS * x)

    def up_continues(d: int) -> bool:
        return x * p_low(start + d) > room

    def down_continues(d: int) -> bool:
        k = anchor - 1 - d
        return (k - production - 1) * p_low(k) * k / x > 0.25 * abs_tol

    up = _count_while(up_continues, _MAX_SERIES_TERMS)
    down = _count_while(down_continues, max(min(_MAX_SERIES_TERMS, anchor - production - 1), 0))
    return up + down


def _weighted_tail(i: int, rho: float) -> float:
    """sum_{j>=0} (i+j)(i+j-1) rho^j, in closed form, for 0 <= rho < 1."""
    d = 1.0 - rho
    return i * (i - 1) / d + 2.0 * i * rho / (d * d) + 2.0 * rho * rho / (d * d * d)


def _count_while(holds, limit: int) -> int:
    """How many of d = 0, 1, .., limit-1 pass `holds` before the first that fails.

    `holds` must be true up to some d and false after it.
    """
    lo, hi = 0, limit
    while lo < hi:
        mid = (lo + hi) // 2
        if holds(mid):
            lo = mid + 1
        else:
            hi = mid
    return lo


def _fewest_terms(x: float, production: int, anchor: int, anchor_err: float) -> int:
    """A lower bound on the terms cumulative_series_oracle adds above the switch.

    Neither walk stops while its tail test fails.  Within d steps of the
    anchor a term is at least p_low at the far end (the lgamma log term
    less a margin for its own error and the walk's), and the weight factor
    of the tail at least its value there with the weight index nearest the
    anchor; both fall with d.  The running sum stays below twice
    E[(N-P)^2] = x + (x-P)^2 and, for P+3 > x, below twice p_{P+2} times
    the weights' geometric sum 2 / (1 - x/(P+3))^3.  Bisection finds, for
    each walk, the first d at which these bounds allow a stop.
    """
    slack = 1.0 + 2.0 * anchor_err

    def p_low(k: int) -> float:
        return math.exp(_log_term(x, k) - slack)

    most = x + (x - production) ** 2
    if production + 3 > x:
        rho = x / (production + 3)
        top = math.exp(_log_term(x, production + 2) + slack)
        most = min(most, 2.0 * top / (1.0 - rho) ** 3)
    limit = 2.0 * _UNIT_ROUNDOFF * most
    i_anchor = anchor - production

    def up_continues(d: int) -> bool:
        k = anchor + d
        p = p_low(k)
        return p >= _SMALLEST_NORMAL and p * _weighted_tail(max(i_anchor, 2), x / (k + 1)) > limit

    def down_continues(d: int) -> bool:
        k = anchor - d
        i = k - production
        weight = i * (i - 1) * (i - 2) * k / (i_anchor * (d + 1) + 2 * anchor)
        return p_low(k) * weight > limit

    up = _count_while(up_continues, _MAX_SERIES_TERMS)
    down = _count_while(down_continues, max(min(_MAX_SERIES_TERMS, i_anchor - 2), 0))
    return up + down


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
        anchor_err = _anchor_error(x, anchor)
        if x > _REFUSAL_GATE:
            _refuse_hopeless(
                x, anchor_err, lambda: _fewest_terms(x, production, anchor, anchor_err)
            )
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
    the other 0.45 abs_tol, leaving slack so the reported bound sits below
    abs_tol.  Each accepted panel is Boole's rule, weights (14, 64, 24, 64,
    14)/180 of its width, all positive, so the integrand's errors add up to
    at most t times the largest bound the series oracle reports.  Past the
    anchor switch that bound can exceed the integrand tolerance; the larger
    one is charged, and the reported bound may then exceed abs_tol, as the
    series oracle's own may.  At t = 0 the integral is exactly zero.
    """
    t = check_nonnegative(t, "time")
    abs_tol = check_positive(abs_tol, "absolute tolerance")
    if t == 0.0:
        return EstimateWithError(0.0, 0.0, 0)

    integrand_tol = 0.45 * abs_tol / t
    integrand_bound = integrand_tol

    def integrand(u: float) -> float:
        nonlocal integrand_bound
        est = backlog_series_oracle(params, u, integrand_tol)
        integrand_bound = max(integrand_bound, est.abs_error_bound)
        return est.value

    ramp = params.production / params.lam
    seeds = {t * k / 8.0 for k in range(1, 8)}
    if 0.0 < ramp < t:
        seeds.add(ramp)
    value, quad_err, n_evals = adaptive_simpson(
        integrand, 0.0, t, 0.45 * abs_tol, knots=sorted(seeds)
    )
    return EstimateWithError(value, quad_err + integrand_bound * t, n_evals)


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

    import numpy as np

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

    All folds live on one uniform grid t_k = k h over [0, t] (the step is
    snapped so the grid lands exactly on t); each fold is a discrete
    convolution with endpoint half-weights.  The result converges to the
    n-stage arrival density with error O(grid_step^2), and carries none
    for n <= 3, where the integrands are piecewise linear.  Grids beyond
    1e8 points are refused.

    On a uniform grid the exponential kernel factors,
    lam e^{-lam (t_k - t_i)} = lam e^{-lam t_k} e^{lam t_i}, so the iterate
    tilted by e^{lam t_k} / lam folds as a running sum,
    q_k <- lam h (sum_{i<=k} q_i - q_0 / 2 - q_k / 2), starting from q = 1,
    and the density is lam q_m e^{-lam t}.  Each fold is O(m) instead of
    the O(m^2) of a direct convolution, so a call costs O(n m) time and two
    arrays of m + 1 floats.  The factor (lam h)^{n-1} is kept out of the
    arrays, which then hold values at most m^{n-1}, and the result is
    formed as one exponential of the summed logarithms, so a density whose
    e^{-lam t} alone would underflow keeps its relative digits.  lam*t must
    be finite; where lam^n t^{n-1} e^{-lam t} bounds the density below
    e^{-750}, 0.0 is returned without building the grid.
    """
    lam = check_positive(lam, "rate")
    check_int(n, "fold count", 2, 8)
    t = check_positive(t, "time")
    x = check_nonnegative(lam * t, "lambda*t")
    grid_step = float(grid_step)
    if not (0.0 < grid_step <= t / 100.0):
        raise DomainError(f"grid step must lie in (0, t/100], got {grid_step!r}")
    m = round(t / grid_step)
    if m + 1 > 100_000_000:
        raise ResourceLimitError(f"grid of {m + 1} points exceeds the 1e8-point ceiling")
    h = t / m
    # The trapezoid sum of a non-negative increasing iterate is at most k
    # times its largest term, so q_m <= (lam t)^{n-1} and the density is at
    # most lam^n t^{n-1} e^{-lam t}; below e^{-750} it underflows anyway.
    log_lam = math.log(lam)
    if n * log_lam + (n - 1) * math.log(t) - x < -750.0:
        return 0.0

    import numpy as np

    # After j folds q holds the tilted iterate over (lam h)^j.
    q = np.ones(m + 1)
    sums = np.empty(m + 1)
    for _ in range(n - 1):
        np.cumsum(q, out=sums)
        sums -= 0.5 * q[0]
        q *= -0.5
        q += sums
    return math.exp(log_lam + math.log(q[-1]) + (n - 1) * (log_lam + math.log(h)) - x)
