"""Poisson and Erlang building blocks.

Everything downstream (closed forms, transform images, oracles) is built
from regularized Poisson probabilities e^{-x} x^n / n!.  Raw powers and
factorials appear nowhere: terms are generated by the one-step recurrence

    p_0 = e^{-x},    p_n = p_{n-1} * x / n,

anchored at n = 0 when e^{-x} is representable and at the modal index
otherwise.  _anchor alone picks that index and its relative error, for
every walk of the package (the series oracles' too), and alone refuses an
anchor with no correct digit.  One kernel, _poisson_window, forms the
anchor's term and walks each block of terms out of it once, after
_cutoff_range has found where the block meets the cutoff window, and
returns only its non-zero terms; poisson_term is a block of one, and the
closed forms sum a block from index 0 with _fsum; a block with no index
is empty.  erlang_cdf and expected_backlog sum their Poisson tail on its
short side, which one helper, _short_tail, picks and sums: the block
below n where n <= lambda*t, and the block from n up to the cutoff where
n > lambda*t.  There the lower block is the long side, and its complement
1 - sum, or lambda*t - P + sum, cancels to a rounding residue of the
larger part; the upper block is short and keeps its digits.  Every term
is the same product, formed in the same order, whichever block it is
computed in, so neighbouring terms are consistent to machine precision,
which the rest of the package relies on.  Where the modal anchor has no
correct digit (above lambda*t of about 2e13) a block that reaches the
cutoff window raises AccuracyError instead of a value.

A short side's window is walked only as far as its rounded sum needs.
Once the window is known to be longer than a near reach of about
sqrt(100 x) terms from n, _short_tail sums that reach alone and bounds the
rest by a geometric majorant delta, formed by _weighted_tail, the one
closed form of sum_j (i+j)_r rho^j that the series oracles stop on too.
Where fsum(kept) == fsum(kept + [delta]), the full window's sum rounds to
the same double and is not walked (1,771 of its 6,393 terms at lambda*t =
30182.4, P = 30182).  Otherwise the full window is walked, so no bit
depends on the stop.

_fsum hands a long list of non-negative terms to math.fsum largest first.
fsum rounds the exact sum correctly, so the order never changes a bit,
but in index order a window that rises out of the left tail leaves fsum
one partial per term, each walked by every later term: 4.5 ms for the
6,211 weighted terms of the full window of expected_backlog at lambda*t =
30182.4, P = 30000, 0.25 ms sorted.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

from .errors import AccuracyError, check_int, check_nonnegative, check_positive

__all__ = [
    "ModelParams",
    "poisson_term",
    "erlang_density",
    "erlang_cdf",
]

# Terms whose true magnitude falls below this are reported as exactly 0.0.
UNDERFLOW_FLOOR = 1e-320

# Largest x for which e^{-x} is itself comfortably above the floor; below
# this the recurrence starts from p_0, above it from the modal index.
_ANCHOR_SWITCH = 700.0

# ln(UNDERFLOW_FLOOR) with a little slack, used to reject hopeless queries
# before any looping.
_LOG_CUTOFF = -740.0

_EPS = 2.220446049250313e-16

# Largest production level: the largest power of ten at which P(P+1), which
# every cumulative candidate forms as a double, is still finite.
MAX_PRODUCTION = 10**154

# Smallest positive normal double; below it a term loses relative precision.
_SMALLEST_NORMAL = 2.2250738585072014e-308

# L of the near reach 1 + 2L/3 + sqrt(2Lx), about sqrt(100 x), to which
# _short_tail walks a long window first.  By the Chernoff bounds the terms
# past it are about e^{-50} = 2e-22 of the largest or less, under the unit
# roundoff of any sum they join.  The reach is only a guess: a certificate
# decides whether it was far enough, and a miss costs a second walk, never
# a bit.
_STOP_LOG = 50.0

# Lists longer than this are sorted before math.fsum; on shorter ones the
# sort costs more than it saves (a 16-term window sums in 0.43 us in index
# order and 0.95 us sorted).
_SORT_ABOVE = 64


@dataclass(frozen=True)
class ModelParams:
    """Demand rate and fixed production level of the make-to-stock model.

    lam : mean number of demand arrivals per unit time (must be positive
        and finite).
    production : units produced up front and available from time zero
        (a non-negative integer).
    """

    lam: float
    production: int

    def __post_init__(self):
        lam = check_positive(self.lam, "demand rate")
        check_int(self.production, "production level", 0, MAX_PRODUCTION)
        object.__setattr__(self, "lam", lam)


def _log_term(x: float, n: int) -> float:
    """ln(e^{-x} x^n / n!), used only for cheap cutoff decisions."""
    if n == 0:
        return -x
    return n * math.log(x) - x - math.lgamma(n + 1)


def _anchor(x: float) -> tuple[int, float]:
    """(m, error): the index every Poisson walk at x = lambda*t starts from, and p_m's relative error.

    Up to the switch m is 0 and p_0 = e^{-x} is exact to rounding: error
    0.  Above it m is the mode, floor(x), and p_m = exp(_log_term(x, m)),
    whose ln p = m ln x - x - lgamma(m+1) cancels terms of up to m ln x +
    x (lgamma(m+1) <= m ln x); each is good to a few ulps of itself, 2.4
    at worst against mpmath up to lambda*t = 1e7, which 4 eps (2 m ln x +
    x) covers.  At 1 or more, from lambda*t of about 2e13, the anchor has
    no correct digit and AccuracyError is raised.
    """
    if x <= _ANCHOR_SWITCH:
        return 0, 0.0
    m = int(x)
    error = 4.0 * _EPS * (2.0 * m * math.log(x) + x)
    if not error < 1.0:
        raise AccuracyError(f"the modal anchor at lambda*t = {x:g} has no correct digit")
    return m, error


def _fsum(terms: list) -> float:
    """math.fsum of non-negative terms, fed largest first when there are many.

    Sorts the list in place when it holds more than _SORT_ABOVE terms.  No
    partial sum of non-negative terms exceeds the total and fsum returns
    the correctly rounded exact sum, so the order changes the time, never
    the result.  Only for fresh lists of non-negative finite terms.
    """
    if len(terms) > _SORT_ABOVE:
        terms.sort(reverse=True)
    return math.fsum(terms)


def _walk_up(x: float, k: int, p: float, lo: int, hi: int) -> list[float]:
    """p_lo, p_{lo+1}, .., p_{hi-1} from p = p_k, k <= lo, by p_n = p_{n-1} * x / n.

    Ends before the first term below the floor: that term and every one
    after it are 0.0 and left out.  A list, not a generator: below the
    switch every block comes this way, and a generator cost a fifth of a
    microsecond more per block.
    """
    for n in range(k + 1, lo + 1):
        p *= x / n
        if p < UNDERFLOW_FLOOR:
            return []
    terms = [p]
    for n in range(lo + 1, hi):
        p *= x / n
        if p < UNDERFLOW_FLOOR:
            break
        terms.append(p)
    return terms


def _descend(x: float, k: int, p: float, hi: int, lo: int) -> list[float]:
    """p_{hi-1}, p_{hi-2}, .., p_lo from p = p_k, lo < hi <= k + 1, by p_{n-1} = p_n * n / x.

    Ends before the first term below the floor, like _walk_up, and returns
    a list like it.
    """
    for n in range(k, hi - 1, -1):
        p *= n / x
        if p < UNDERFLOW_FLOOR:
            return []
    terms = [p]
    for n in range(hi - 1, lo, -1):
        p *= n / x
        if p < UNDERFLOW_FLOOR:
            break
        terms.append(p)
    return terms


def _cutoff_range(x: float, lo: int, hi: int) -> tuple[int, int]:
    """(first, end): the indices of [lo, hi) in the cutoff window, as [first, end).

    Above the switch the ends of the cutoff window {n : _log_term(x, n) >=
    _LOG_CUTOFF} that fall inside [lo, hi) are found by bisection, after Fox
    and Glynn (1988), "Computing Poisson probabilities", CACM 31(4), so the
    window's length is known before any walk.  Below it only lo is tested:
    every index under the mode clears, and the walk stops itself at the
    floor above it.  (lo, lo) where no index of [lo, hi) clears.
    """
    if lo >= hi:
        return lo, lo
    if x <= _ANCHOR_SWITCH:
        # Below the mode every term is at least e^{-700}, so only an index
        # above it can fall under the cutoff; at x = 0 every one above 0 is.
        if lo > 0 and (x == 0.0 or _log_term(x, lo) < _LOG_CUTOFF):
            return lo, lo
        return lo, hi

    mode = int(x)
    first, last = lo, hi - 1
    # Where an end of [lo, hi) falls under the cutoff, bisection counts the
    # indices from `inner` towards it that still clear.
    if first < mode and _log_term(x, first) < _LOG_CUTOFF:
        inner = min(last, mode)
        if inner == first or _log_term(x, inner) < _LOG_CUTOFF:
            return lo, lo
        below = lambda d: _log_term(x, inner - 1 - d) < _LOG_CUTOFF  # noqa: E731
        first = inner - bisect_left(range(inner - first), True, key=below)
    if last > mode and _log_term(x, last) < _LOG_CUTOFF:
        inner = max(first, mode)
        if inner == last or _log_term(x, inner) < _LOG_CUTOFF:
            return lo, lo
        below = lambda d: _log_term(x, inner + 1 + d) < _LOG_CUTOFF  # noqa: E731
        last = inner + bisect_left(range(last - inner), True, key=below)
    return first, last + 1


def _poisson_window(x: float, lo: int, hi: int) -> tuple[int, list[float]]:
    """The terms p_lo .. p_{hi-1} at x = lambda*t >= 0 in one walk.

    Returns (first, terms): p_n is terms[n - first] where that index exists
    and 0.0 elsewhere in [lo, hi), so enumerate(terms, first) pairs each
    non-zero term with its index.  The walk covers only the indices that
    _cutoff_range keeps; indices outside them are 0.0 without a walk.  It
    starts from the anchor, p_0 = e^{-x} up to the switch and the modal
    term above it, as _anchor picks it, and forms the same products in the
    same order as a walk from the anchor to each index on its own, so every
    term keeps its bits.  The anchor's term exp(_log_term(x, m)) is formed
    here and nowhere else (at m = 0 it is exp(-x)).  A block that reaches
    the cutoff window where the anchor has no correct digit raises
    _anchor's AccuracyError.  A range with lo >= hi holds no index and
    returns (lo, []).
    """
    first, end = _cutoff_range(x, lo, hi)
    if first >= end:
        return lo, []
    anchor, _ = _anchor(x)
    p = math.exp(_log_term(x, anchor))
    if first >= anchor:
        return first, _walk_up(x, anchor, p, first, end)
    below = _descend(x, anchor, p, min(end, anchor), first)
    below.reverse()
    if end <= anchor:
        return end - len(below), below
    return anchor - len(below), below + _walk_up(x, anchor, p, anchor, end)


def _short_tail(x: float, k: int, r: int) -> tuple[bool, float]:
    """The short side of the Poisson tail split at k, as (above, sum of |n-k|^r p_n).

    r is 0 (the tail's mass) or 1 (its first moment about k).  Where
    k <= x = lambda*t, above is False and the sum runs over p_0 .. p_{k-1};
    where k > x, above is True and it runs over p_k, p_{k+1}, .. up to the
    cutoff.  The other side is long and its sum cancels against the total.
    By the Chernoff bound p_j <= exp(-(j-x)^2 / (2x + 2(j-x)/3)) above the
    mode (and exp(-(x-j)^2 / 2x) below it), every p_j with
    |j - x| >= 2L/3 + sqrt(2Lx) lies under e^{-L}.  With L = -_LOG_CUTOFF
    that makes reach = 1000 + sqrt(1480 x) past the cutoff: the upper
    window ends at k + reach, and from k > x + reach it is empty without a
    walk or a log term (which cannot take an index past the largest double).

    The sum is the correctly rounded one (fsum, through _fsum) over every
    non-zero term of the window, but a window longer than the near reach,
    1 + 2L/3 + sqrt(2Lx) at L = _STOP_LOG, is walked first only that far
    from k.  _rest_bound bounds the terms the full walk would add beyond it
    by a delta >= 0.  If fsum(kept) == fsum(kept + [delta]), every exact
    sum in between rounds to the same double (fsum rounds correctly and
    rounding is monotone), the full window's sum among them, and that is
    returned.  Otherwise the full window is walked and summed, so the
    result is always its bits.
    """
    if k <= x:
        above, lo, hi = False, 0, k
    else:
        reach = int(1000 + math.sqrt(1480.0 * x))
        if k > x + reach:
            return True, 0.0
        above, lo, hi = True, k, k + reach + 1
    first, end = _cutoff_range(x, lo, hi)
    if first >= end:
        return above, 0.0
    near = 1 + int(_STOP_LOG / 1.5 + math.sqrt(2.0 * _STOP_LOG * x))
    if end - first > near:
        start, terms = _poisson_window(x, k, k + near) if above else _poisson_window(x, k - near, k)
        # Where the floor ends the near walk, it ends the window's there too.
        delta = 0.0 if len(terms) < near else _rest_bound(x, k, r, above, near, terms, end - first)
        kept = _weighted(terms, start, k, r)
        total = _fsum(kept)
        if math.fsum(kept + [delta]) == total:
            return above, total
    start, terms = _poisson_window(x, first, end)
    return above, _fsum(_weighted(terms, start, k, r))


def _weighted(terms: list[float], start: int, k: int, r: int) -> list[float]:
    """|n-k|^r p_n for the terms p_start, p_{start+1}, .., r = 0 or 1: the list itself at r = 0."""
    return terms if r == 0 else [abs(n - k) * q for n, q in enumerate(terms, start)]


def _rest_bound(x: float, k: int, r: int, above: bool, near: int, terms: list[float], length: int) -> float:
    """A bound on the sum of |n-k|^r p_n, as the float walk forms them, past the near reach.

    terms are the near reach's, p_m the last of them, at m = k + near - 1
    (above) or k - near (below), a = |m - k| from k, and length is the
    window's.  Each further step multiplies a term by at most sigma: the
    recurrence's exact ratio, m/x below and x/(m+1) above, only falls away
    from the mode, and its two roundings (and, below the switch, those of
    the upward walk read backwards) fit in the 4 eps margin.  So the
    weighted rest is at most p_m sum_{j>=1} (a+j)^r sigma^j =
    p_m sigma _weighted_tail(a + 1, r, sigma), as (a+j)^r is the falling
    factorial (a+j)_r at r <= 1, charged twice over for the roundings of
    the weights and of this bound.  That holds while the terms are normal;
    a subnormal one may stop shrinking (one step then moves it by less
    than half an ulp), so every term of the window is also charged the
    smallest normal at the window's largest weight, length^r.  inf where
    sigma >= 1.
    """
    m, p_m = (k + near - 1, terms[-1]) if above else (k - near, terms[0])
    sigma = (x / (m + 1) if above else m / x) * (1.0 + 4 * _EPS)
    rest = p_m * sigma * _weighted_tail(abs(m - k) + 1, r, sigma) if sigma < 1.0 else math.inf
    return 2.0 * (rest + length ** (r + 1) * _SMALLEST_NORMAL)


def _weighted_tail(i: int, r: int, rho: float) -> float:
    """sum_{j>=0} (i+j)_r rho^j, in closed form, for r = 0, 1 or 2 and 0 <= rho < 1.

    (i)_r is the falling factorial i (i-1) .. (i-r+1), 1 at r = 0.  Where
    the terms past p_k shrink by at most rho a step, p_{k+j} <= p_k rho^j,
    the weighted tail from k on is at most p_k times this: the majorant of
    the series oracles' upward walk and of _rest_bound's rest.
    """
    d = 1.0 - rho
    if r == 0:
        return 1.0 / d
    if r == 1:
        return i / d + rho / (d * d)
    return i * (i - 1) / d + 2.0 * i * rho / (d * d) + 2.0 * rho * rho / (d * d * d)


def poisson_term(lambda_t: float, n: int) -> float:
    """Regularized Poisson probability e^{-x} x^n / n! at x = lambda_t.

    Evaluated by the one-step recurrence p_n = p_{n-1} x / n from an anchor
    term, never from raw powers, so no intermediate overflows occur for x
    up to 1e4 and n up to 1e5 and the ratio of neighbouring terms is exact
    to rounding.  True values below 1e-320 come back as exactly 0.0.  Above
    lambda*t of about 2e13 the anchor has no correct digit, and a term the
    cutoff does not flush to 0.0 raises AccuracyError.
    """
    check_int(n, "term index", 0)
    x = check_nonnegative(lambda_t, "lambda*t")
    _, terms = _poisson_window(x, n, n + 1)
    return terms[0] if terms else 0.0


def _erlang_args(lam: float, n: int, t: float) -> tuple[float, float]:
    """Checked (lam, lam*t) for the n-stage Erlang law, n >= 1."""
    check_int(n, "stage count", 1)
    lam = check_positive(lam, "rate")
    return lam, check_nonnegative(lam * check_nonnegative(t, "time"), "lambda*t")


def erlang_density(lam: float, n: int, t: float) -> float:
    """Density of the n-th arrival epoch, lam^n t^{n-1} e^{-lam t} / (n-1)!.

    The convolution count n starts at 1 (a single exponential stage); n = 0
    is rejected.  Internally this is lam * poisson_term(lam*t, n-1), which
    keeps the evaluation overflow-free for large lam*t.  Where that term
    flushes to 0.0 but lam > 1 may lift the product back above it, the
    density is formed as one exponential of lam's and the term's logs.
    """
    lam, x = _erlang_args(lam, n, t)
    p = poisson_term(x, n - 1)
    if p == 0.0 and lam > 1.0 and x > 0.0:
        return math.exp(math.log(lam) + _log_term(x, n - 1))
    return lam * p


def erlang_cdf(lam: float, n: int, t: float) -> float:
    """P(n-th arrival <= t) = 1 - sum_{j=0}^{n-1} e^{-lam t}(lam t)^j / j!
    = sum_{j >= n} e^{-lam t}(lam t)^j / j!.

    Summed on the short side of x = lam*t by _short_tail(x, n, 0): where
    n <= x, the complement of the correctly rounded sum (fsum, fed largest
    first through _fsum when the window is long) of p_0 .. p_{n-1}; where
    n > x, the sum of p_n, p_{n+1}, .. up to the cutoff, which keeps its
    digits down to the underflow floor where the complement would leave a
    rounding residue of 1 (2.97e-13 at n = 6064, x = 3031.8, where the
    truth is below 1e-300).  A long window is walked only as far as its
    rounded sum needs, with the bits of the whole window.  The result is
    clamped into [0, 1] against last-bit rounding of the summation.
    Raises AccuracyError where poisson_term's anchor has no correct digit.
    """
    _, x = _erlang_args(lam, n, t)
    above, tail = _short_tail(x, n, 0)
    cdf = tail if above else 1.0 - tail
    if cdf < 0.0:
        return 0.0
    if cdf > 1.0:
        return 1.0
    return cdf
