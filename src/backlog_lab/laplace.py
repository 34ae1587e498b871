"""Laplace images of the backlog quantities, a forward transform, and a
real-valued numerical inverter.

The images are simple rational-power expressions in s and are cheap to
evaluate; the forward transform turns any time-domain callable with at most
polynomial growth into a numerical image; Gaver-Stehfest inversion goes the
other way.  Together these close the loop: image -> inversion -> time
domain -> forward transform -> image, which the test-bench leans on
heavily.

Stehfest weights are notoriously cancellation-prone if assembled in
floating point, so they are built once per order in exact rational
arithmetic and only then rounded, and the rounded tuple is cached.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from .distributions import ModelParams
from .errors import AccuracyError, DomainError, check_int, check_positive
from .oracles import EstimateWithError
from .quadrature import adaptive_simpson

__all__ = [
    "InversionConfig",
    "image_backlog_prob",
    "image_expected_backlog",
    "image_cumulative_backlog",
    "image_corollary_form",
    "forward_transform",
    "invert_gaver_stehfest",
    "stehfest_weights",
]

_LN2 = math.log(2.0)

# Inversion refuses times below this: the abscissae k ln2 / t blow up.
INVERSION_T_MIN = 1e-3


def _check_stehfest_order(order: int) -> int:
    """An even number of Stehfest terms between 4 and 20; beyond 20 the
    weights overwhelm the 53-bit mantissa."""
    if isinstance(order, bool) or not isinstance(order, int) or not 4 <= order <= 20 or order % 2:
        raise DomainError(f"Stehfest order must be even and in [4, 20], got {order!r}")
    return order


@dataclass(frozen=True)
class InversionConfig:
    """Settings for numerical inversion.

    order : even number of Stehfest terms, between 4 and 20.  14 is a good
        default in double precision.
    """

    method: str = "gaver-stehfest"
    order: int = 14

    def __post_init__(self):
        if self.method != "gaver-stehfest":
            raise DomainError(f"unknown inversion method {self.method!r}")
        _check_stehfest_order(self.order)


def image_backlog_prob(params: ModelParams, j: int, s: float) -> float:
    """Image of the probability of a backlog of exactly j units.

    A backlog of magnitude j means demand has consumed the production
    stock plus j more, so the time-domain function is the Poisson mass
    at index j + P; its transform is (lam/(lam+s))^{j+P} / (lam+s).
    """
    check_int(j, "backlog level", 0)
    s = check_positive(s, "transform variable")
    lam = params.lam
    ratio = lam / (lam + s)
    return ratio ** (j + params.production) / (lam + s)


def image_expected_backlog(params: ModelParams, s: float) -> float:
    """Image of the pointwise expected backlog: (lam/(lam+s))^P lam / s^2."""
    s = check_positive(s, "transform variable")
    lam = params.lam
    return _divide((lam / (lam + s)) ** params.production * lam, s, s)


def image_cumulative_backlog(params: ModelParams, s: float) -> float:
    """Image of the cumulative expected backlog: one more 1/s factor."""
    return image_expected_backlog(params, s) / s


def image_corollary_form(params: ModelParams, s: float) -> float:
    """Geometric-series form fhat^{P+1} / (s (1 - fhat)), fhat = lam/(lam+s).

    Algebraically identical to image_expected_backlog, and kept as a
    separate evaluation route so the identity can be checked rather than
    assumed.  The complement 1 - fhat is written as its exact equivalent
    s/(lam+s): the literal subtraction loses about lam/s units in the last
    place once s is small against lam, which would swamp the identity check
    for no mathematical reason.
    """
    s = check_positive(s, "transform variable")
    fhat = params.lam / (params.lam + s)
    one_minus_fhat = s / (params.lam + s)
    return _divide(fhat ** (params.production + 1), s, one_minus_fhat)


def _divide(num: float, a: float, b: float) -> float:
    """num / (a b), or num / a / b where a b falls below the smallest normal.

    A tiny s then makes an image overflow to inf, which the inversion
    refuses, instead of dividing by a product that underflowed to zero.
    """
    ab = a * b
    return num / ab if ab >= sys.float_info.min else num / a / b


def _tail_majorant(s: float, big_t: float, degree: int, coeff: float) -> float:
    """Upper bound for integral_T^inf coeff (1+t)^degree e^{-st} dt."""
    w = 1.0 + big_t
    if degree == 0:
        q = 1.0 / s
    elif degree == 1:
        q = w / s + 1.0 / (s * s)
    else:
        q = w * w / s + 2.0 * w / (s * s) + 2.0 / (s * s * s)
    return coeff * math.exp(-s * big_t) * q


def forward_transform(
    f: Callable[[float], float],
    s: float,
    abs_tol: float,
    growth_degree: int = 0,
    growth_coeff: float = 1.0,
) -> EstimateWithError:
    """Numerical Laplace transform integral_0^inf e^{-st} f(t) dt.

    The caller certifies |f(t)| <= growth_coeff * (1+t)^growth_degree with
    growth_degree in {0, 1, 2}; the truncation point T is then chosen so the
    discarded tail is below abs_tol/2, and the remaining finite integral is
    done adaptively with the other half of the budget.
    """
    s = check_positive(s, "transform variable")
    abs_tol = check_positive(abs_tol, "absolute tolerance")
    if growth_degree not in (0, 1, 2):
        raise DomainError(f"growth degree must be 0, 1, or 2, got {growth_degree!r}")
    growth_coeff = check_positive(growth_coeff, "growth coefficient")

    big_t = max(1.0, 1.0 / s)
    while _tail_majorant(s, big_t, growth_degree, growth_coeff) > abs_tol / 2.0:
        big_t *= 2.0
        if big_t > 1e15:
            raise AccuracyError("could not control the transform tail; s too small?")
    tail = _tail_majorant(s, big_t, growth_degree, growth_coeff)

    def integrand(t: float) -> float:
        return math.exp(-s * t) * f(t)

    seeds = {big_t * k / 8.0 for k in range(1, 8)}
    seeds.update(big_t / 2.0**k for k in range(4, 8))
    value, quad_err, n_evals = adaptive_simpson(
        integrand, 0.0, big_t, abs_tol / 2.0, knots=sorted(seeds)
    )
    return EstimateWithError(
        value=value, abs_error_bound=quad_err + tail, n_effective=n_evals
    )


@lru_cache(maxsize=None)
def _stehfest_weights_exact(order: int) -> tuple[Fraction, ...]:
    """Exact rational Stehfest weights; these satisfy sum zeta_k = 0 and
    sum zeta_k / k = 1 identically, which the test suite asserts."""
    half = _check_stehfest_order(order) // 2
    weights = []
    for k in range(1, order + 1):
        acc = Fraction(0)
        for j in range((k + 1) // 2, min(k, half) + 1):
            num = Fraction(j**half) * math.factorial(2 * j)
            den = (
                math.factorial(half - j)
                * math.factorial(j)
                * math.factorial(j - 1)
                * math.factorial(k - j)
                * math.factorial(2 * j - k)
            )
            acc += num / den
        if (k + half) % 2:
            acc = -acc
        weights.append(acc)
    return tuple(weights)


@lru_cache(maxsize=None)
def stehfest_weights(order: int) -> tuple[float, ...]:
    """Stehfest weights zeta_1..zeta_order for an even order in [4, 20].

    Assembled in exact rational arithmetic and converted to float only at
    the very end, sidestepping the catastrophic cancellation a naive
    floating-point assembly suffers.  Cached per order; the tuple is
    immutable so concurrent first calls are harmless.
    """
    return tuple(float(w) for w in _stehfest_weights_exact(order))


def invert_gaver_stehfest(
    image: Callable[[float], float], t: float, config: InversionConfig | None = None
) -> float:
    """Invert a Laplace image at time t with the Gaver-Stehfest sum.

    f(t) ~ (ln2 / t) sum_k zeta_k F(k ln2 / t).  Real-valued abscissae only;
    accurate to roughly 1e-4 relative or better for smooth non-oscillatory
    originals at the default order.  Raises AccuracyError when an image
    value is not finite, as the built-in images become at large t.
    """
    if config is None:
        config = InversionConfig()
    t = check_positive(t, "inversion time")
    if t < INVERSION_T_MIN:
        raise DomainError(f"inversion time must be >= {INVERSION_T_MIN!r}, got {t!r}")
    weights = stehfest_weights(config.order)
    scale = _LN2 / t
    values = [image(k * scale) for k in range(1, config.order + 1)]
    if not all(math.isfinite(v) for v in values):
        raise AccuracyError(f"the image is not finite at the abscissae for t = {t:g}")
    return scale * math.fsum(w * v for w, v in zip(weights, values))
