"""Exception types shared across the package, and the argument checks.

Three failure categories are distinguished so that callers (and the
command-line front end) can map them to distinct exit codes: bad inputs,
requests whose accuracy target could not be certified, and requests that
would exceed a hard resource ceiling.  Every public entry point rejects bad
inputs through the checks below, so one domain is spelt one way.
"""

from __future__ import annotations

import math

__all__ = ["DomainError", "ResourceLimitError", "AccuracyError"]


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ResourceLimitError(DomainError):
    """A request would exceed a hard resource ceiling (grid size, term count)."""


class AccuracyError(RuntimeError):
    """A requested error tolerance could not be certified.

    Carries the best estimate obtained so far, when one exists, so that a
    caller may still inspect the uncertified value.
    """

    def __init__(self, message: str, best_estimate: float | None = None):
        super().__init__(message)
        self.best_estimate = best_estimate


def check_positive(value: float, what: str) -> float:
    """value as a float, if it is positive and finite."""
    try:
        value = float(value)
    except OverflowError:  # an int past the largest double
        value = math.inf if value > 0 else -math.inf
    if not math.isfinite(value) or value <= 0.0:
        raise DomainError(f"{what} must be positive and finite, got {value!r}")
    return value


def check_nonnegative(value: float, what: str) -> float:
    """value as a float, if it is non-negative and finite, with -0.0 as 0.0.

    The two zeros are one point of the domain, so every caller that keeps
    or prints the checked value sees 0.0 and needs no rule of its own.
    """
    try:
        value = float(value)
    except OverflowError:  # an int past the largest double
        value = math.inf if value > 0 else -math.inf
    if not math.isfinite(value) or value < 0.0:
        raise DomainError(f"{what} must be non-negative and finite, got {value!r}")
    return value + 0.0  # -0.0 + 0.0 is 0.0; every other value is unchanged


def check_int(value: int, what: str, low: int | None = None, high: int | None = None) -> int:
    """value, if it is an int (not a bool) within [low, high]; None leaves a side open."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"{what} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise DomainError(f"{what} must be at least {low}, got {value}")
    if high is not None and value > high:
        raise DomainError(f"{what} must be at most {high}, got {value}")
    return value
