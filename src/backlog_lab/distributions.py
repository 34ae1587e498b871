"""Poisson and Erlang building blocks.

Everything downstream (closed forms, transform images, oracles) is built
from regularized Poisson probabilities e^{-x} x^n / n!.  Raw powers and
factorials appear nowhere: terms are generated by the one-step recurrence

    p_0 = e^{-x},    p_n = p_{n-1} * x / n,

anchored at n = 0 when e^{-x} is representable and at the modal index
otherwise.  One kernel, _poisson_window, walks each block of terms out of
that anchor once, after finding where the block meets the cutoff window,
and returns only its non-zero terms; poisson_term is a block of one, and
the closed forms sum a block from index 0 with _fsum; a block with no
index is empty.  erlang_cdf and expected_backlog sum their Poisson tail
on its short side, which one helper, _short_tail, picks: the block below
n where n <= lambda*t, and the block from n up to the cutoff where
n > lambda*t.  There the lower block is the long side, and its
complement 1 - sum, or lambda*t - P + sum, cancels to a rounding residue
of the larger part; the upper block is short and keeps its digits.
Every term is the same product, formed in the same order, whichever block
it is computed in, so neighbouring terms are consistent to machine
precision, which the rest of the package relies on.  Where the modal
anchor has no correct digit (above lambda*t of about 2e13) a block that
reaches the cutoff window raises AccuracyError instead of a value.

_fsum hands a long list of non-negative terms to math.fsum largest first.
fsum rounds the exact sum correctly, so the order never changes a bit,
but in index order a window that rises out of the left tail leaves fsum
one partial per term, each walked by every later term: 4.5 ms for the
6,211 weighted terms of expected_backlog at lambda*t = 30182.4, P = 30000,
0.25 ms sorted.
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


def _anchor_error(x: float, anchor: int) -> float:
    """Relative error of the modal anchor exp(_log_term(x, anchor)).

    ln p = m ln x - x - lgamma(m+1) cancels terms of up to this size
    (lgamma(m+1) <= m ln x); each is good to a few ulps of itself, 2.4 at
    worst against mpmath up to lambda*t = 1e7.  At 1 or more the anchor
    has no correct digit, from lambda*t of about 2e13.
    """
    return 4.0 * _EPS * (2.0 * anchor * math.log(x) + x)


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
    after it are 0.0 and left out.  A list, not a generator like
    _descend: below the switch every block comes this way, and the
    generator cost a fifth of a microsecond more per block.
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


def _descend(x: float, k: int, p: float, hi: int, lo: int):
    """p_{hi-1}, p_{hi-2}, .., p_lo from p = p_k, hi <= k + 1, by p_{n-1} = p_n * n / x.

    Nothing when hi <= lo.  Ends before the first term below the floor,
    like _walk_up.  Lazy, so that a caller summing downwards may stop early.
    """
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


def _poisson_window(x: float, lo: int, hi: int) -> tuple[int, list[float]]:
    """The terms p_lo .. p_{hi-1} at x = lambda*t >= 0 in one walk.

    Returns (first, terms): p_n is terms[n - first] where that index exists
    and 0.0 elsewhere in [lo, hi), so enumerate(terms, first) pairs each
    non-zero term with its index.  The walk starts from the anchor, p_0 =
    e^{-x} up to the switch and the modal term above it, and forms the same
    products in the same order as a walk from the anchor to each index on
    its own, so every term keeps its bits.  Above the switch the ends of
    the cutoff window {n : _log_term(x, n) >= _LOG_CUTOFF} that fall inside
    [lo, hi) are found first, by bisection, after Fox and Glynn (1988),
    "Computing Poisson probabilities", CACM 31(4): indices outside it are
    0.0 without a walk.  A block that reaches that window where the anchor
    has no correct digit (_anchor_error of 1 or more) raises AccuracyError.
    A range with lo >= hi holds no index and returns (lo, []).
    """
    if lo >= hi:
        return lo, []
    if x <= _ANCHOR_SWITCH:
        # Below the mode every term is at least e^{-700}, so only an index
        # above it can fall under the cutoff; at x = 0 every one above 0 is.
        if lo > 0 and (x == 0.0 or _log_term(x, lo) < _LOG_CUTOFF):
            return lo, []
        return lo, _walk_up(x, 0, math.exp(-x), lo, hi)

    anchor = int(x)
    first, last = lo, hi - 1

    def clears(n: int) -> bool:
        return _log_term(x, n) >= _LOG_CUTOFF

    # Where an end of [lo, hi) falls under the cutoff, bisection counts the
    # indices from `inner` towards it that still clear.
    if first < anchor and not clears(first):
        inner = min(last, anchor)
        if inner == first or not clears(inner):
            return lo, []
        first = inner - bisect_left(range(inner - first), True, key=lambda d: not clears(inner - 1 - d))
    if last > anchor and not clears(last):
        inner = max(first, anchor)
        if inner == last or not clears(inner):
            return lo, []
        last = inner + bisect_left(range(last - inner), True, key=lambda d: not clears(inner + 1 + d))
    if not _anchor_error(x, anchor) < 1.0:
        raise AccuracyError(f"the modal anchor at lambda*t = {x:g} has no correct digit")
    p = math.exp(_log_term(x, anchor))
    if first >= anchor:
        return first, _walk_up(x, anchor, p, first, last + 1)
    below = list(_descend(x, anchor, p, min(last + 1, anchor), first))
    below.reverse()
    if last < anchor:
        return last + 1 - len(below), below
    return anchor - len(below), below + _walk_up(x, anchor, p, anchor, last + 1)


def _short_tail(x: float, k: int) -> tuple[bool, int, list[float]]:
    """The short side of the Poisson tail split at k, as (above, first, terms).

    Where k <= x = lambda*t, above is False and the terms are p_0 .. p_{k-1}.
    Where k > x, above is True and the terms are p_k, p_{k+1}, .. up to the
    cutoff: by the Chernoff bound p_j <= exp(-(j-x)^2 / (2x + 2(j-x)/3))
    above the mode, every p_j with j - x >= 2L/3 + sqrt(2Lx), L =
    -_LOG_CUTOFF, lies under the cutoff, and reach = 1000 + sqrt(1480 x) is
    past that: the window ends at k + reach, and from k > x + reach it is
    empty without a walk or a log term (which cannot take an index past the
    largest double).  The other side is long and its sum cancels against
    the total; first and terms are as _poisson_window returns them.
    """
    if k <= x:
        return (False, *_poisson_window(x, 0, k))
    reach = int(1000 + math.sqrt(1480.0 * x))
    if k > x + reach:
        return True, k, []
    return (True, *_poisson_window(x, k, k + reach + 1))


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

    Summed on the short side of x = lam*t, as _short_tail(x, n) picks it:
    where n <= x, the complement of the correctly rounded sum (fsum, fed
    largest first through _fsum when the window is long) of p_0 .. p_{n-1};
    where n > x, the sum of p_n, p_{n+1}, .. up to the cutoff, which keeps
    its digits down to the underflow floor where the complement would leave
    a rounding residue of 1 (2.97e-13 at n = 6064, x = 3031.8, where the
    truth is below 1e-300).  One window walk either way, clamped into
    [0, 1] against last-bit rounding of the summation.  Raises
    AccuracyError where poisson_term's anchor has no correct digit.
    """
    _, x = _erlang_args(lam, n, t)
    above, _, terms = _short_tail(x, n)
    cdf = _fsum(terms) if above else 1.0 - _fsum(terms)
    if cdf < 0.0:
        return 0.0
    if cdf > 1.0:
        return 1.0
    return cdf
