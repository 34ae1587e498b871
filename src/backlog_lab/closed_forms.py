"""Closed-form expressions for pointwise and cumulative expected backlog.

The pointwise quantity is E[(D(t) - P)^+] for Poisson demand D(t) with mean
lam*t and a fixed production level P.  For its running integral over [0, t]
six competing algebraic variants circulate; all six are implemented here
literally, each under its own tag, so that the adjudicator can compare them
against oracles that know nothing about any of them.

Writing x = lam*t and p_j = e^{-x} x^j / j!, the variants differ in the
upper limits of three bracketed sums, in the sign of the P(P+1)/(2 lam)
term, in the sign of the exponential prefactor, and in trailing correction
terms.  One table (_EVALUATORS) maps each tag to its evaluator.  Four
variants share one three-sum bracket and differ only in its parameters;
compact, a single sum, and original are written out on their own.  Every
bracket is evaluated as a combination of regularized Poisson terms with
exact integer coefficients, each sum one math.fsum over the non-zero
terms of one window from index 0 (a term outside it is 0.0 and adds
nothing), so no step or float is spent on the indices up to P past the
cutoff.  Every weighted term is non-negative, so distributions._fsum may
hand a long window to fsum largest first: the same bits, in a twentieth
of the time at lambda*t = 3e4.  Where the modal anchor has no correct
digit (lambda*t above about 2e13) the window raises AccuracyError.  Raw
powers of x never appear except in original, whose printed form carries
a growing exponential, which is reproduced faithfully (and therefore
diverges, as the adjudicator will happily report).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .distributions import ModelParams, _fsum, _poisson_window, _short_tail
from .errors import AccuracyError, DomainError, check_nonnegative

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
    """Pointwise expected backlog E[(N-P)^+] = sum_{n>P} (n-P) p_n(lam*t).

    Summed on the short side of x = lam*t by _short_tail(x, P, 1), each
    term weighted by |n-P|.  Where P <= x it is
    x - P + sum_{n<P} (P-n) p_n, the standard loss-function correction
    accumulated as a single correctly rounded sum of non-negative terms;
    with P = 0 that sum is empty and the value is exactly x.  Where P > x
    that lower sum is the long side, and x - P cancels it to a rounding
    residue of P that may be negative; the upper tail
    sum_{n>=P} (n-P) p_n, to the cutoff, is short, never negative and keeps
    its digits.  A long window is walked only as far as its rounded sum
    needs, with the bits of the whole window.  Raises AccuracyError where
    poisson_term's anchor has no correct digit.
    """
    t = check_nonnegative(t, "time")
    lam, production = params.lam, params.production
    x = check_nonnegative(lam * t, "lambda*t")
    above, tail = _short_tail(x, production, 1)
    return tail if above else x - production + tail


def _poly(lam: float, production: int, t: float, sign: int) -> float:
    """lam t^2/2 - P t + sign P(P+1)/(2 lam) with sign +1 or -1.  Negation
    is exact and a + (-b) rounds as a - b, so either sign gives the bits of
    the written-out expression."""
    tail = production * (production + 1) / (2.0 * lam)
    return lam * t * t / 2.0 - production * t + sign * tail


def _eval_original(lam: float, production: int, t: float) -> tuple[float, tuple[str, ...]]:
    # Raw powers and a growing exponential, reproduced as printed.  The
    # bracket is built from u_j = x^j / j! via the same one-step recurrence,
    # which stops at the first u that is 0.0 or inf: every later one is the
    # same, and adds nothing more to a sum.
    x = lam * t
    p = production
    u = [1.0]
    for j in range(1, p):
        u.append(u[-1] * x / j)
        if u[-1] == 0.0 or u[-1] == math.inf:
            break
    try:
        s1 = math.fsum(u[:p])
        s2 = math.fsum(v * x for v in u[: max(p - 1, 0)])
        s3 = math.fsum(v * x * x for v in u[: max(p - 2, 0)])
    except OverflowError:
        # Finite terms summing past the largest double: the bracket, a sum
        # of (P-n)(P-n+1) u_n >= 0, diverges, as where grow = inf below.
        return -math.inf, ()
    bracket = p * (p + 1) * s1 - 2 * p * s2 + s3
    value = _poly(lam, p, t, +1)
    if bracket != 0.0:
        try:
            grow = math.exp(x)
        except OverflowError:
            grow = math.inf
        value = value - grow * bracket / (2.0 * lam)
    # The same divergence where an overflow meets another: a term x^j/j! of
    # inf makes the bracket inf - inf, and an inf polynomial part or 2 lam
    # makes the value inf - inf or inf / inf.  The growing term dominates.
    return (-math.inf if math.isnan(value) else value), ()


def _eval_compact(lam: float, production: int, t: float) -> tuple[float, tuple[str, ...]]:
    p = production
    first, terms = _poisson_window(lam * t, 0, p)
    bracket = _fsum([(p - n) * (p - n + 1) * q for n, q in enumerate(terms, first)])
    return _poly(lam, p, t, +1) - bracket / (2.0 * lam), ()


def _bracket_row(caps: tuple[int, int, int], sign: int, extra=None, defined_from: int = 0):
    """The evaluator of one variant built on the three-sum bracket

        P(P+1) sum_{j<c1} p_j - 2P sum_{j<c2} (j+1) p_{j+1}
            + sum_{j<c3} (j+1)(j+2) p_{j+2}  [+ extra(P, p)]

    with e^{-x} folded into every term.  caps holds (c1, c2, c3) as offsets
    from P and sign the sign of P(P+1)/(2 lam) in the polynomial part; extra
    is a function of P and of q(n) = p_n (0.0 outside the window of non-zero
    terms), and defined_from the smallest P at which it is defined.  Below
    that P the term holds the factorial of a negative integer, so it is
    dropped and the value flagged.
    """

    def evaluate(lam: float, p: int, t: float) -> tuple[float, tuple[str, ...]]:
        # p_{P+3} is the highest term any row reads.
        first, terms = _poisson_window(lam * t, 0, p + 4)
        c1, c2, c3 = (p + cap for cap in caps)
        # The three sums' terms, n p_n and (n-1) n p_n as written with j = n-1
        # and j = n-2, in one pass over the window.
        s1, s2, s3 = [], [], []
        for n, q in enumerate(terms, first):
            if n < c1:
                s1.append(q)
            if n <= c2:
                s2.append(n * q)
            if n <= c3 + 1:
                s3.append((n - 1) * n * q)
        bracket = p * (p + 1) * _fsum(s1) - 2 * p * _fsum(s2) + _fsum(s3)
        warnings: tuple[str, ...] = ()
        if p < defined_from:
            warnings = (UNDEFINED_TERM,)
        elif extra is not None:
            bracket += extra(p, lambda n: terms[n - first] if 0 <= n - first < len(terms) else 0.0)
        return _poly(lam, p, t, sign) - bracket / (2.0 * lam), warnings

    return evaluate


# Each candidate's evaluator, called as (lam, P, t) -> (value, warnings).
_EVALUATORS = {
    CandidateFormula.ORIGINAL: _eval_original,
    CandidateFormula.ORIGINAL_NEGEXP: _bracket_row((0, -1, -2), +1),
    CandidateFormula.WOLFRAM: _bracket_row(
        (2, 2, 2),
        -1,
        lambda p, q: (p - 1) * (p + 2) * q(p + 2) - (p + 2) * (p + 3) * q(p + 3),
    ),
    # -4P x^{P-1}/(P-2)! is -4P (P-1) p_{P-1}.  4P(P-1) is no double near
    # the production ceiling, where p_{P-1} is 0.0, so a zero term adds 0.0.
    CandidateFormula.NOTE: _bracket_row(
        (0, -1, -2), -1, lambda p, q: -4 * p * (p - 1) * q(p - 1) if q(p - 1) else 0.0, 2
    ),
    # +2 x^{P-1}/(P-1)! is +2 p_{P-1}.
    CandidateFormula.EQ10: _bracket_row((-1, -2, -3), -1, lambda p, q: 2.0 * q(p - 1), 1),
    CandidateFormula.COMPACT: _eval_compact,
}


def cumulative_expected_backlog(
    params: ModelParams, t: float, candidate: CandidateFormula
) -> CumulativeValue:
    """Evaluate one candidate's cumulative expected backlog over [0, t].

    Each tag maps to exactly one evaluation rule; sums whose upper limit
    falls below the lower one are empty.  Variants containing a factorial
    of a negative integer at small P return the remaining terms with an
    ``undefined-term`` warning instead of raising.  Where a candidate's
    overflowing parts meet as inf - inf (P(P+1)/(2 lam) and its bracket at
    a tiny rate and a large P), its value is NaN and AccuracyError is
    raised instead.
    """
    t = check_nonnegative(t, "time")
    if not isinstance(candidate, CandidateFormula):
        raise DomainError(f"unknown candidate {candidate!r}")
    lam, production = params.lam, params.production
    check_nonnegative(lam * t, "lambda*t")
    value, warnings = _EVALUATORS[candidate](lam, production, t)
    if math.isnan(value):
        raise AccuracyError(
            f"{candidate.value} is not a number at lambda = {lam:g}, P = {production}, "
            f"t = {t:g}: its overflowing parts cancel"
        )
    return CumulativeValue(value=value, t=t, candidate=candidate, warnings=warnings)
