"""Closed-form expressions for pointwise and cumulative expected backlog.

The pointwise quantity is E[(D(t) - P)^+] for Poisson demand D(t) with mean
lam*t and a fixed production level P.  For its running integral over [0, t]
six competing algebraic variants circulate; all six are implemented here
literally, each under its own tag, so that the adjudicator can compare them
against oracles that know nothing about any of them.

Writing x = lam*t and p_j = e^{-x} x^j / j!, the variants differ in the
upper limits of three bracketed sums, in the sign of the P(P+1)/(2 lam)
term, in the sign of the exponential prefactor, and in trailing correction
terms.  Four of them share one three-sum bracket and are rows of one
table (_BRACKET_ROWS); compact, a single sum, and original are written out
on their own.  Every bracket is evaluated as a combination of regularized
Poisson terms with exact integer coefficients; raw powers of x never appear
except in original, whose printed form carries a growing exponential, which
is reproduced faithfully (and therefore diverges, as the adjudicator will
happily report).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .distributions import ModelParams, _poisson_prefix
from .errors import DomainError, check_nonnegative

__all__ = [
    "CandidateFormula",
    "CumulativeValue",
    "expected_backlog",
    "cumulative_expected_backlog",
]

UNDEFINED_TERM = "undefined-term"


class CandidateFormula(enum.Enum):
    """The six cumulative-backlog variants under adjudication.

    original         three sums capped at P-1 / P-2 / P-3, +P(P+1)/(2 lam),
                     and a growing e^{+lam t} prefactor, exactly as printed.
    original-negexp  the same bracket with the exponent sign flipped to the
                     decaying e^{-lam t}.
    wolfram          machine-expanded variant: sums capped at P+1 plus a
                     two-term tail, with -P(P+1)/(2 lam).
    note             sums capped at P-1 / P-2 / P-3, -P(P+1)/(2 lam), and an
                     extra -4P x^{P-1}/(P-2)! inside the bracket.
    eq10             sums capped at P-2 / P-3 / P-4, -P(P+1)/(2 lam), and an
                     extra +2 x^{P-1}/(P-1)! inside the bracket.
    compact          single sum of (P-j)(P-j+1) x^j / j! with
                     +P(P+1)/(2 lam).
    """

    ORIGINAL = "original"
    ORIGINAL_NEGEXP = "original-negexp"
    WOLFRAM = "wolfram"
    NOTE = "note"
    EQ10 = "eq10"
    COMPACT = "compact"


@dataclass(frozen=True)
class CumulativeValue:
    """One candidate's cumulative expected backlog at a single time point."""

    value: float
    t: float
    candidate: CandidateFormula
    warnings: tuple[str, ...] = ()


def expected_backlog(params: ModelParams, t: float) -> float:
    """Pointwise expected backlog lam*t - P + sum_{i<P} (P-i) p_i(lam*t).

    The bracket is the standard loss-function correction, accumulated as a
    single sum of non-negative terms.  With P = 0 this is exactly lam*t.
    """
    t = check_nonnegative(t, "time")
    lam, production = params.lam, params.production
    x = check_nonnegative(lam * t, "lambda*t")
    if production == 0:
        return x
    terms = _poisson_prefix(x, production)
    bracket = math.fsum((production - i) * terms[i] for i in range(production))
    return x - production + bracket


def _poly_plus(lam: float, production: int, t: float) -> float:
    return lam * t * t / 2.0 - production * t + production * (production + 1) / (2.0 * lam)


def _poly_minus(lam: float, production: int, t: float) -> float:
    return lam * t * t / 2.0 - production * t - production * (production + 1) / (2.0 * lam)


def _eval_original(lam: float, production: int, t: float) -> tuple[float, tuple[str, ...]]:
    # Raw powers and a growing exponential, reproduced as printed.  The
    # bracket is built from u_j = x^j / j! via the same one-step recurrence.
    x = lam * t
    p = production
    u = [1.0]
    for j in range(1, p):
        u.append(u[-1] * x / j)
    s1 = math.fsum(u[j] for j in range(p))
    s2 = math.fsum(u[j] * x for j in range(p - 1))
    s3 = math.fsum(u[j] * x * x for j in range(p - 2))
    bracket = p * (p + 1) * s1 - 2 * p * s2 + s3
    value = _poly_plus(lam, p, t)
    if bracket != 0.0:
        try:
            grow = math.exp(x)
        except OverflowError:
            grow = math.inf
        value = value - grow * bracket / (2.0 * lam)
    return value, ()


def _eval_compact(lam: float, production: int, t: float) -> tuple[float, tuple[str, ...]]:
    p = production
    terms = _poisson_prefix(lam * t, p)
    bracket = math.fsum((p - j) * (p - j + 1) * terms[j] for j in range(p))
    return _poly_plus(lam, p, t) - bracket / (2.0 * lam), ()


# The four variants built on the three-sum bracket
#
#     P(P+1) sum_{j<c1} p_j - 2P sum_{j<c2} (j+1) p_{j+1}
#         + sum_{j<c3} (j+1)(j+2) p_{j+2}  [+ extra(P, p)]
#
# with e^{-x} folded into every term.  Each row holds (c1, c2, c3) as
# offsets from P, the polynomial part, the extra term, and the smallest P at
# which that term is defined; below it the term holds the factorial of a
# negative integer, so it is dropped and the value flagged.
_BRACKET_ROWS = {
    CandidateFormula.ORIGINAL_NEGEXP: ((0, -1, -2), _poly_plus, None, 0),
    CandidateFormula.WOLFRAM: (
        (2, 2, 2),
        _poly_minus,
        lambda p, q: (p - 1) * (p + 2) * q[p + 2] - (p + 2) * (p + 3) * q[p + 3],
        0,
    ),
    # -4P x^{P-1}/(P-2)! is -4P (P-1) p_{P-1}.
    CandidateFormula.NOTE: (
        (0, -1, -2), _poly_minus, lambda p, q: -4 * p * (p - 1) * q[p - 1], 2
    ),
    # +2 x^{P-1}/(P-1)! is +2 p_{P-1}.
    CandidateFormula.EQ10: ((-1, -2, -3), _poly_minus, lambda p, q: 2.0 * q[p - 1], 1),
}


def _eval_bracket_row(row: tuple, lam: float, p: int, t: float) -> tuple[float, tuple[str, ...]]:
    caps, poly, extra, defined_from = row
    # p_{P+3} is the highest term any row reads.
    terms = _poisson_prefix(lam * t, p + 4)
    c1, c2, c3 = (p + cap for cap in caps)
    s1 = math.fsum(terms[j] for j in range(c1))
    s2 = math.fsum((j + 1) * terms[j + 1] for j in range(c2))
    s3 = math.fsum((j + 1) * (j + 2) * terms[j + 2] for j in range(c3))
    bracket = p * (p + 1) * s1 - 2 * p * s2 + s3
    warnings: tuple[str, ...] = ()
    if p < defined_from:
        warnings = (UNDEFINED_TERM,)
    elif extra is not None:
        bracket += extra(p, terms)
    return poly(lam, p, t) - bracket / (2.0 * lam), warnings


_LITERAL_EVALUATORS = {
    CandidateFormula.ORIGINAL: _eval_original,
    CandidateFormula.COMPACT: _eval_compact,
}


def cumulative_expected_backlog(
    params: ModelParams, t: float, candidate: CandidateFormula
) -> CumulativeValue:
    """Evaluate one candidate's cumulative expected backlog over [0, t].

    Each tag maps to exactly one evaluation rule; sums whose upper limit
    falls below the lower one are empty.  Variants containing a factorial
    of a negative integer at small P return the remaining terms with an
    ``undefined-term`` warning instead of raising.
    """
    t = check_nonnegative(t, "time")
    if not isinstance(candidate, CandidateFormula):
        raise DomainError(f"unknown candidate {candidate!r}")
    lam, production = params.lam, params.production
    check_nonnegative(lam * t, "lambda*t")
    row = _BRACKET_ROWS.get(candidate)
    if row is None:
        value, warnings = _LITERAL_EVALUATORS[candidate](lam, production, t)
    else:
        value, warnings = _eval_bracket_row(row, lam, production, t)
    return CumulativeValue(value=value, t=t, candidate=candidate, warnings=warnings)
