"""Independent numerical oracles for the backlog quantities.

None of these routines know anything about the closed-form candidates:
the two series oracles sum the first and second factorial moments of
(N-P)^+, which are the expected backlog and 2 lam times its time
integral, as one math.fsum over the weighted terms of one walk over the
Poisson terms (_moment_walk), with geometric tail bounds.  Each returns
its bound whatever its size; the adjudicator, which has a tolerance,
decides what it certifies.  The quadrature oracle integrates the
pointwise series oracle in time, the Monte Carlo estimator simulates
Poisson paths and integrates the backlog trajectory exactly, and the
convolution routine builds the Erlang density from repeated trapezoidal
convolution of the exponential density.  Agreement between any candidate
and these routes is therefore evidence, not circularity.

On the convolution's uniform grid the exponential kernel factors as
e^{-lam (t_k - t_i)} = e^{-lam t_k} e^{lam t_i}, so each fold of the
iterate tilted by e^{lam t_k} is one running sum: O(n m) time for n folds
of an m-step grid, in two arrays of m + 1 floats, and no truncation error
for n <= 3.

Only the Monte Carlo estimator and the convolution routine use numpy
arrays; each imports numpy on its first call, after its argument checks,
so that importing this module (and the package, and the CLI) does not
load numpy.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass

from .distributions import (
    _EPS,
    _SMALLEST_NORMAL,
    UNDERFLOW_FLOOR,
    ModelParams,
    _anchor,
    _log_term,
    _weighted_tail,
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

# Above the switch, the a-priori lower bound on a series walk's length
# (_fewest_terms) counts only indices k whose term p_k is at least the
# smallest normal double, e^{-L} with L = 708.4 (its downward test asks
# p_k > 2 eps / x^2, more up to x = 1e146).  By the Chernoff bounds
# p_k <= exp(-(x-k)^2 / 2x) below the mode and
# exp(-(k-x)^2 / (2x + 2(k-x)/3)) above it, such k lie within sqrt(2Lx)
# below x and 2L/3 + sqrt(2Lx) above it: at most 7.6 million indices at
# x = 1e10, short of the budget.  Below this lambda*t the bound cannot
# refuse, so _moment_walk skips it there, which is always safe: the walk
# keeps the budget itself.
_REFUSAL_GATE = 1e10

_UNIT_ROUNDOFF = 0.5 * _EPS
# The downward walk's majorant is at least the next weighted term times
# this (see _moment_walk).
_DOWN_MARGIN = 1.0 - 8.0 * _EPS

# Most doubles in one array a call allocates, 800 MB: Monte Carlo's
# per-path results and each convolution grid are refused past it.
_MAX_ARRAY = 100_000_000

# Most uniforms one Monte Carlo path may draw.
_MC_CHUNK_DRAWS = 8_000_000
# Doubles in the one block that a Monte Carlo call transforms in place, a
# chunk of whole paths at a time (or one longer path): 2 MiB stays in cache
# across the eight passes over it, where a block of _MC_CHUNK_DRAWS streams
# each pass through memory and ran about 20% slower.
_MC_BLOCK_DRAWS = 1 << 18

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


def backlog_series_oracle(params: ModelParams, t: float) -> EstimateWithError:
    """Expected backlog E[(N-P)^+] = sum_{k>P} (k-P) p_k(lam t): _moment_walk at r = 1.

    The value is summed to rounding.  Its bound is the walk's two tail
    majorants plus a rounding charge for terms at most K recurrence steps
    from the anchor: above the switch the worst case (2K + 8) eps value and
    the error of the lgamma anchor, as distributions._anchor gives it; below
    it (where that anchor is p_0, error 0) 3 sqrt(K+1) eps value, a
    random-walk model of the K roundings, about 2.5 times the largest error
    seen in sweeps below the switch.  The worst case would exceed the 1e-12
    that acceptance criterion 1 holds the bound to at lambda*t = 100, so
    that part is not a certificate.  The bound is returned whatever its
    size.  Raises AccuracyError as _moment_walk does.
    """
    t = check_nonnegative(t, "time")
    x = check_nonnegative(params.lam * t, "lambda*t")
    return _moment_walk(x, params.production, 1, 1.0)


def cumulative_series_oracle(params: ModelParams, t: float) -> EstimateWithError:
    """Cumulative expected backlog in one pass over the Poisson terms.

    Integrating the pointwise series term by term, with
    int_0^t p_m(lam u) du = P(N(t) >= m+1) / lam, gives

        C(t) = (1 / 2 lam) sum_{k >= P+2} (k-P)(k-P-1) p_k(x),    x = lam t,

    with x as formed in floating point, as every candidate forms it: the
    second factorial moment of (N-P)^+, _moment_walk at r = 2.  The value
    is summed to rounding and the bound is a certificate, returned whatever
    its size; a caller with a tolerance compares the two.  Raises
    AccuracyError as _moment_walk does.
    """
    t = check_nonnegative(t, "time")
    x = check_nonnegative(params.lam * t, "lambda*t")
    return _moment_walk(x, params.production, 2, 2.0 * params.lam)


def _moment_walk(x: float, production: int, r: int, scale: float) -> EstimateWithError:
    """sum_{k >= P+r} (k-P)_r p_k(x) / scale, for r = 1 or 2 and x >= 0.

    (i)_r is the falling factorial i (i-1) .. (i-r+1), so the sum is the
    r-th factorial moment of (N-P)^+.  The terms ride the one-step
    recurrence from distributions._anchor, the anchor of every Poisson walk
    of the package: p_0 = e^{-x} up to the 700 switch, and beyond it the
    modal term (through lgamma), from which they are walked both down to
    P+r and up, after Fox and Glynn (1988), "Computing Poisson
    probabilities", CACM 31(4).  The upward walk starts at max(anchor,
    P+r), with that term from poisson_term, as every closed form forms it;
    below P+r the weights are zero.  No term of non-zero weight is skipped.
    The weighted terms, upward first, then downward, are kept and summed
    once by math.fsum, which rounds their exact sum correctly (Shewchuk
    1997, Discrete Comput. Geom. 18); a plain running sum serves the stop
    tests.

    Past the mode, p_j <= p_k rho^{j-k} for j >= k with rho = x/(k+1), so
    the weighted tail from k on is at most p_k sum_j (k-P+j)_r rho^j, in
    closed form by distributions._weighted_tail, which also bounds the
    closed forms' rest past their near reach.  Below the mode the summand
    ratio ((i-r)/i) k/x, i = k-P, on the way down is below 1 and falls with
    k: a geometric majorant for the terms left below.  Each walk stops once
    its majorant is below the unit roundoff times the running sum, and the
    upward one also at a term under the smallest normal, where the tail is
    charged at that term's own bound if it is smaller.  The bound adds both
    majorants and a rounding charge for terms at most K recurrence steps
    from the anchor: (2K + 8) eps times the sum, except 3 sqrt(K+1) eps for
    r = 1 below the switch (see backlog_series_oracle), and above the
    switch the error of the lgamma anchor.  Raises AccuracyError before any
    term where the anchor has no correct digit (_anchor's refusal) and,
    above _REFUSAL_GATE, where the walk provably needs _MAX_SERIES_TERMS
    terms; and at that many terms.

    Both loops walk inline and keep (i)_r as an exact int, updated by its
    differences; the upward step reuses rho, and the budget counts down.
    Each loop tests the weighted term before its majorant: the majorant is
    never below that term (upwards) or below the next one less 16 unit
    roundoffs (downwards), so while that term is above the unit roundoff of
    the sum the walk cannot stop, and the majorant is formed only once it
    could.  The products and their order are those of a walk that forms
    every majorant, so every bit is the same, in about 70% of the time at
    lambda*t = 3e4, P = 0.
    """
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
    append = terms.append
    total = 0.0  # their plain running sum, for the stop tests only
    left = _MAX_SERIES_TERMS  # terms the budget still allows
    floor_tail = 0.0  # a tail charged under the smallest normal, over scale
    k, p, i = start, p_start, start - production
    # (i)_r as an exact int, updated by its differences: (i+1)_r - (i)_r
    # is 1 for r = 1 and 2i for r = 2.
    ff, dff, ddff = (i, 1, 0) if r == 1 else (i * (i - 1), 2 * i, 2)
    while True:
        rho = x / (k + 1)
        w = ff * p  # (i)_r p
        # The majorant fl(p W), W = _weighted_tail(i, r, rho), is never below
        # w = fl((i)_r p): fl(W) >= (i)_r and rounding is monotone.  So while
        # w is above the unit roundoff of the sum the walk cannot stop, and
        # the majorant is formed only once w is not.
        if rho < 1.0 and (w <= _UNIT_ROUNDOFF * total or p < _SMALLEST_NORMAL):
            i = k - production
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
        append(w)
        total += w
        left -= 1
        if not left:
            raise _over_budget(terms, scale)
        k += 1
        ff += dff
        dff += ddff
        p *= rho  # p_k = p_{k-1} x / k
    reach = k - anchor

    # Down from the anchor, when it sits above P+r (and so is the start),
    # by p_{k-1} = p_k k / x.  w is the weighted term at k, to start with the
    # first one summed above, and v the one at k - 1.  The majorant of the
    # terms below k, w s / (1 - s), is at least w s, and w s is v to a few
    # roundings.  With e = (i)_r p_k ((i-r)/i) (k/x), the exact weighted
    # term at k - 1, the majorant is at least e (1 - u)^6 (the weight, w,
    # the three of s and w s; dividing by 1 - s <= 1 only raises it) and v
    # at most e (1 + u)^4 (the weight, the step's two and v), at unit
    # roundoff u.  That holds while all of them are normal, as they are
    # wherever v * _DOWN_MARGIN passes the unit roundoff of a sum that holds
    # the modal term.  So the majorant is at least v _DOWN_MARGIN = v (1 -
    # 16 u): while that is above the unit roundoff of the sum the walk
    # cannot stop, and the majorant is formed only once it is not.  If the
    # terms fall under the floor first, the majorant at k covers them.  The
    # walk ends at k = P+r at the latest, where the weight below, and so the
    # majorant, is 0; where the anchor sits below P+r it takes no step, and
    # k >= anchor from the upward walk leaves the reach as it is.
    i, p = anchor - production, p_start
    ff, dff, ddff = (i, 1, 0) if r == 1 else (i * (i - 1), 2 * i - 2, 2)  # (i)_r - (i-1)_r
    w = ff * p
    down_tail = 0.0
    for k in range(anchor, first - 1, -1):
        p *= k / x
        ff -= dff
        dff -= ddff
        v = ff * p
        if p < UNDERFLOW_FLOOR or v * _DOWN_MARGIN <= _UNIT_ROUNDOFF * total:
            i = k - production
            s = (i - r) / i * k / x
            down_tail = w * s / (1.0 - s)
            if p < UNDERFLOW_FLOOR or down_tail <= _UNIT_ROUNDOFF * total:
                break
        w = v
        append(w)
        total += w
        left -= 1
        if not left:
            raise _over_budget(terms, scale)
    reach = max(reach, anchor - k)

    value = math.fsum(terms)
    if r == 1 and anchor == 0:
        rounding = 3.0 * math.sqrt(reach + 1) * _EPS * value
    else:
        rounding = (2 * reach + 8) * _EPS * value
    bound = (up_tail + down_tail + rounding + anchor_err * value) / scale + floor_tail
    return EstimateWithError(value / scale, bound, len(terms))


def _over_budget(terms: array, scale: float) -> AccuracyError:
    """The error for a walk that has spent _MAX_SERIES_TERMS terms."""
    return AccuracyError(
        f"series did not converge within {_MAX_SERIES_TERMS} terms",
        best_estimate=math.fsum(terms) / scale,
    )


def _fewest_terms(x: float, production: int, r: int, anchor: int, slack: float) -> int:
    """A lower bound on the terms _moment_walk adds above the switch.

    Neither walk stops while its tail test fails.  Within d steps of its
    start a term is at least p_low at the far end (the lgamma log term less
    a margin for its own error and the walk's), and the weight factor of
    the tail at least its value there with the weight index of the start;
    both fall with d.  The running sum stays below twice E[(N-P)^2] =
    x + (x-P)^2, which bounds both moments since (N-P)^+ <= (N-P)^2 for
    integers, and, for P+r+1 > x, below twice p_{P+r} times the weights'
    geometric sum r! / (1 - x/(P+r+1))^{r+1}.  Downwards the majorant
    (i)_r p s / (1-s) is (i)_{r+1} k p / (i (x-k) + r k), at least the
    weight below times p.  Bisection finds, for each walk, the first d at
    which these bounds allow a stop.
    """

    def p_low(k: int) -> float:
        return math.exp(_log_term(x, k) - slack)

    most = x + (x - production) ** 2
    if production + r + 1 > x:
        rho = x / (production + r + 1)
        top = math.exp(_log_term(x, production + r) + slack)
        most = min(most, math.factorial(r) * top / (1.0 - rho) ** (r + 1))
    limit = 2.0 * _UNIT_ROUNDOFF * most
    start = max(anchor, production + r)
    i_anchor = anchor - production

    def up_continues(d: int) -> bool:
        k = start + d
        p = p_low(k)
        return p >= _SMALLEST_NORMAL and p * _weighted_tail(start - production, r, x / (k + 1)) > limit

    def down_continues(d: int) -> bool:
        k = anchor - d
        weight = math.perm(k - production, r + 1) * k / (i_anchor * (d + 1) + r * anchor)
        return p_low(k) * weight > limit

    up = bisect_left(range(_MAX_SERIES_TERMS), True, key=lambda d: not up_continues(d))
    down_limit = max(min(_MAX_SERIES_TERMS, i_anchor - r), 0)
    down = bisect_left(range(down_limit), True, key=lambda d: not down_continues(d))
    return up + down


def cumulative_quadrature_oracle(
    params: ModelParams, t: float, abs_tol: float = 1e-9
) -> EstimateWithError:
    """Cumulative expected backlog by adaptive integration of the series oracle.

    The quadrature gets 0.45 abs_tol.  Each accepted panel is Boole's rule,
    weights (14, 64, 24, 64, 14)/180 of its width, all positive, so the
    integrand's errors add up to at most t times the largest bound the
    series oracle reports; that is charged, but never less than
    0.45 abs_tol, which leaves slack so the reported bound sits below
    abs_tol where the series bounds are small.  Past the anchor switch they
    need not be, and the reported bound may then exceed abs_tol.  At t = 0
    the integral is exactly zero.
    """
    t = check_nonnegative(t, "time")
    abs_tol = check_positive(abs_tol, "absolute tolerance")
    if t == 0.0:
        return EstimateWithError(0.0, 0.0, 0)

    integrand_bound = 0.45 * abs_tol / t

    def integrand(u: float) -> float:
        nonlocal integrand_bound
        est = backlog_series_oracle(params, u)
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


def _mc_draws_per_path(x: float) -> int:
    """Uniforms drawn per path at lambda*t = x: the mean plus ten standard deviations and 30."""
    return max(4, int(math.ceil(x + 10.0 * math.sqrt(x) + 30.0)))


def monte_carlo_cumulative(params: ModelParams, t: float, config: McConfig) -> EstimateWithError:
    """Simulate Poisson demand paths and integrate the backlog exactly.

    Interarrival gaps are -ln(U)/lam with U in (0, 1]; for each path the
    integral of (N(u) - P)^+ over [0, t] telescopes to
    sum over arrivals k > P of (t - tau_k)^+, so there is no time
    discretization at all.  Paths are laid out as consecutive counter
    blocks of a Philox stream keyed by the master seed, which makes the
    result a pure function of (seed, n_paths, params, t) regardless of
    how the work is scheduled.  The paths run in chunks through one
    block of at most 8e6 doubles (2 MiB unless one path needs more),
    allocated once per call and transformed in place from uniforms to
    epochs to clipped tails; the stream layout and every bit of the
    result are those of a fresh array per step.  The reported bound is
    the 99% confidence half-width.  lambda*t must be finite; more than
    1e8 paths, or a path that would draw more than 8e6 uniforms, raise
    ResourceLimitError before anything is allocated.
    """
    t = check_nonnegative(t, "time")
    n_paths = config.n_paths
    if n_paths > _MAX_ARRAY:
        raise ResourceLimitError(f"{n_paths} paths exceed the 1e8-path ceiling")
    notes: tuple[str, ...] = ("ci-unreliable",) if n_paths < 100 else ()
    if t == 0.0:
        return EstimateWithError(0.0, 0.0, n_paths, notes)

    lam = params.lam
    production = params.production
    x = check_nonnegative(lam * t, "lambda*t")
    draws_per_path = _mc_draws_per_path(x)
    if draws_per_path > _MC_CHUNK_DRAWS:
        raise ResourceLimitError(
            f"a path at lambda*t = {x:g} needs {draws_per_path} draws, past the {_MC_CHUNK_DRAWS} of a chunk"
        )

    import numpy as np

    gen = np.random.Generator(np.random.Philox(key=config.seed))
    contributions = np.empty(n_paths, dtype=np.float64)
    rows_per_chunk = min(max(1, _MC_BLOCK_DRAWS // draws_per_path), n_paths)
    block = np.empty((rows_per_chunk, draws_per_path), dtype=np.float64)

    start = 0
    while start < n_paths:
        count = min(rows_per_chunk, n_paths - start)
        e = block[:count]
        gen.random(out=e)
        # Epochs -ln(1 - u)/lam, in place: negation is exact and IEEE
        # division is sign-symmetric, so these are the bits of -log1p(-u)/lam.
        np.negative(e, out=e)
        np.log1p(e, out=e)
        np.divide(e, -lam, out=e)
        np.cumsum(e, axis=1, out=e)
        # Paths whose fixed block of draws ran out before t continue on a
        # dedicated per-path stream; with the margin in draws_per_path this
        # is astronomically rare, but correctness should not rely on that.
        # Their last epochs are read before the tail below is overwritten.
        short = np.nonzero(e[:, -1] < t)[0]
        lasts = e[short, -1]
        # Arrivals past the P-th; an empty slice when P >= draws_per_path sums to 0.
        tail = e[:, production:]
        np.subtract(t, tail, out=tail)
        np.maximum(tail, 0.0, out=tail)
        chunk = contributions[start : start + count]
        tail.sum(axis=1, out=chunk)
        for local, last in zip(short.tolist(), lasts.tolist()):
            path = start + local
            extra = np.random.default_rng(
                np.random.SeedSequence(entropy=config.seed, spawn_key=(path, 1))
            )
            arrivals = draws_per_path
            while True:
                nxt = last + -math.log1p(-extra.random()) / lam
                if nxt > t:
                    break
                arrivals += 1
                if arrivals > production:
                    chunk[local] += t - nxt
                last = nxt
        start += count

    # Far from 1, t is first divided out as a power of two near it, which
    # is exact, so that the squares in std neither overflow nor underflow.
    unit = 1.0
    if not 2.0**-400 < t < 2.0**400:
        unit = math.ldexp(1.0, math.frexp(t)[1])
        contributions /= unit
    value = unit * float(contributions.mean())
    if n_paths > 1:
        half_width = _Z99 * (unit * float(contributions.std(ddof=1))) / math.sqrt(n_paths)
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
    grid_step = check_positive(grid_step, "grid step")
    if not grid_step <= t / 100.0:
        raise DomainError(f"grid step must lie in (0, t/100], got {grid_step!r}")
    m = round(t / grid_step)
    if m + 1 > _MAX_ARRAY:
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
