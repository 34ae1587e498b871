"""Poisson and Erlang building blocks.

Everything downstream (closed forms, transform images, oracles) is built
from regularized Poisson probabilities e^{-x} x^n / n!.  Raw powers and
factorials appear nowhere: terms are generated by the one-step recurrence

    p_0 = e^{-x},    p_n = p_{n-1} * x / n,

anchored at n = 0 when e^{-x} is representable and at the modal index
otherwise.  Keeping every term for a given x on a single recurrence path
makes neighbouring terms consistent to machine precision, which the rest
of the package relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import check_int, check_nonnegative, check_positive

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
        check_int(self.production, "production level", 0)
        object.__setattr__(self, "lam", lam)


def _log_term(x: float, n: int) -> float:
    """ln(e^{-x} x^n / n!), used only for cheap cutoff decisions."""
    if n == 0:
        return -x
    return n * math.log(x) - x - math.lgamma(n + 1)


def poisson_term(lambda_t: float, n: int) -> float:
    """Regularized Poisson probability e^{-x} x^n / n! at x = lambda_t.

    Evaluated by the one-step recurrence p_n = p_{n-1} x / n from an anchor
    term, never from raw powers, so no intermediate overflows occur for x
    up to 1e4 and n up to 1e5 and the ratio of neighbouring terms is exact
    to rounding.  True values below 1e-320 come back as exactly 0.0.
    """
    check_int(n, "term index", 0)
    x = check_nonnegative(lambda_t, "lambda*t")
    if x == 0.0:
        return 1.0 if n == 0 else 0.0
    if x > 0.0 and n > 0 and _log_term(x, n) < _LOG_CUTOFF:
        return 0.0

    if x <= _ANCHOR_SWITCH:
        # e^{-x} is representable: walk up from n = 0.
        p = math.exp(-x)
        for k in range(1, n + 1):
            p *= x / k
            if p < UNDERFLOW_FLOOR:
                return 0.0
        return p

    # Anchor at the modal index, where the term is largest, and walk to n.
    mode = int(x)
    p = math.exp(_log_term(x, mode))
    if n >= mode:
        for k in range(mode + 1, n + 1):
            p *= x / k
            if p < UNDERFLOW_FLOOR:
                return 0.0
    else:
        for k in range(mode, n, -1):
            p *= k / x
            if p < UNDERFLOW_FLOOR:
                return 0.0
    return p


def _poisson_prefix(lambda_t: float, count: int) -> list[float]:
    """First `count` regularized terms p_0 .. p_{count-1}, one recurrence pass.

    Matches poisson_term value-for-value (same anchoring, same underflow
    floor) at amortized O(1) per term, for callers that need a contiguous
    block of terms.
    """
    if check_int(count, "term count", 0) == 0:
        return []
    x = check_nonnegative(lambda_t, "lambda*t")
    if x == 0.0:
        return [1.0] + [0.0] * (count - 1)
    if x <= _ANCHOR_SWITCH:
        p = math.exp(-x)
        out = [p]
        for k in range(1, count):
            if p != 0.0:
                p *= x / k
                if p < UNDERFLOW_FLOOR:
                    p = 0.0
            out.append(p)
        return out
    # Large x: reproduce the modal anchoring of poisson_term for each index.
    return [poisson_term(x, j) for j in range(count)]


def _erlang_args(lam: float, n: int, t: float) -> tuple[float, float]:
    """Checked (lam, lam*t) for the n-stage Erlang law, n >= 1."""
    check_int(n, "stage count", 1)
    lam = check_positive(lam, "rate")
    return lam, lam * check_nonnegative(t, "time")


def erlang_density(lam: float, n: int, t: float) -> float:
    """Density of the n-th arrival epoch, lam^n t^{n-1} e^{-lam t} / (n-1)!.

    The convolution count n starts at 1 (a single exponential stage); n = 0
    is rejected.  Internally this is lam * poisson_term(lam*t, n-1), which
    keeps the evaluation overflow-free for large lam*t.
    """
    lam, x = _erlang_args(lam, n, t)
    return lam * poisson_term(x, n - 1)


def erlang_cdf(lam: float, n: int, t: float) -> float:
    """P(n-th arrival <= t) = 1 - sum_{j=0}^{n-1} e^{-lam t}(lam t)^j / j!.

    Exact complement of the Poisson partial sum; clamped into [0, 1] against
    last-bit rounding of the summation.
    """
    _, x = _erlang_args(lam, n, t)
    mass = math.fsum(poisson_term(x, j) for j in range(n))
    cdf = 1.0 - mass
    if cdf < 0.0:
        return 0.0
    if cdf > 1.0:
        return 1.0
    return cdf
