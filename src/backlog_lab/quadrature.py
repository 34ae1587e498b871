"""Adaptive Simpson quadrature with a certified-style error estimate.

One integrator serves both the cumulative-backlog oracle and the forward
Laplace transform.  Intervals are bisected until the classic Richardson
criterion |S_fine - S_coarse| <= 15 * local_tol holds; accepted panels
contribute the extrapolated value S_fine + (S_fine - S_coarse)/15 and an
error charge |S_fine - S_coarse|/15.  Endpoint values are threaded through
the work stack so every abscissa is evaluated exactly once per call.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

from .errors import AccuracyError, DomainError, check_positive

__all__ = ["adaptive_simpson"]

_MAX_DEPTH = 48
# Integrand evaluations one call may make; the tier-1 suite's largest call
# makes 5,361.
_MAX_EVALS = 20_000


def _simpson(fa: float, fm: float, fb: float, h: float) -> float:
    return h / 6.0 * (fa + 4.0 * fm + fb)


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    abs_tol: float,
    knots: Iterable[float] = (),
    max_depth: int = _MAX_DEPTH,
) -> tuple[float, float, int]:
    """Integrate f over [a, b] to absolute tolerance abs_tol.

    knots are optional interior abscissae at which the interval is split
    before any adaptation starts; they let a caller point the integrator at
    known features such as a narrow density bump.  Returns
    (value, error_estimate, n_evaluations).  Raises AccuracyError, carrying
    the best estimate, if some panel still fails the acceptance criterion
    at the maximum bisection depth, or if the panels would take more than
    _MAX_EVALS evaluations of f.
    """
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)) or b < a:
        raise DomainError(f"bad integration interval [{a!r}, {b!r}]")
    abs_tol = check_positive(abs_tol, "absolute tolerance")
    if a == b:
        return 0.0, 0.0, 0

    n_evals = 0

    def eval_f(t: float) -> float:
        nonlocal n_evals
        n_evals += 1
        return f(t)

    cuts = sorted({a, b} | {float(k) for k in knots if a < float(k) < b})
    values = {t: eval_f(t) for t in cuts}
    width = b - a

    total = 0.0
    err_total = 0.0
    failed = False

    # Stack entries: (left, f(left), mid, f(mid), right, f(right),
    #                 coarse Simpson value, local tolerance, depth).
    stack = []
    for lo, hi in zip(cuts, cuts[1:]):
        mid = 0.5 * (lo + hi)
        fmid = eval_f(mid)
        s0 = _simpson(values[lo], fmid, values[hi], hi - lo)
        stack.append(
            (lo, values[lo], mid, fmid, hi, values[hi], s0, abs_tol * (hi - lo) / width, 0)
        )

    while stack:
        lo, flo, mid, fmid, hi, fhi, s0, tol, depth = stack.pop()
        if n_evals + 2 > _MAX_EVALS:
            raise AccuracyError(
                f"quadrature did not converge to {abs_tol:g} within {_MAX_EVALS} evaluations",
                best_estimate=total + s0 + sum(entry[6] for entry in stack),
            )
        lmid = 0.5 * (lo + mid)
        rmid = 0.5 * (mid + hi)
        flmid = eval_f(lmid)
        frmid = eval_f(rmid)
        s_left = _simpson(flo, flmid, fmid, mid - lo)
        s_right = _simpson(fmid, frmid, fhi, hi - mid)
        delta = s_left + s_right - s0
        if abs(delta) <= 15.0 * tol or depth >= max_depth or lmid <= lo or rmid >= hi:
            if abs(delta) > 15.0 * tol:
                failed = True
            total += s_left + s_right + delta / 15.0
            err_total += abs(delta) / 15.0
        else:
            half = 0.5 * tol
            stack.append((lo, flo, lmid, flmid, mid, fmid, s_left, half, depth + 1))
            stack.append((mid, fmid, rmid, frmid, hi, fhi, s_right, half, depth + 1))

    if failed:
        raise AccuracyError(
            f"quadrature did not converge to {abs_tol:g} within depth {max_depth}",
            best_estimate=total,
        )
    return total, err_total, n_evals
