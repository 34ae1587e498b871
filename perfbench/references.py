"""Independent reference values for checking the program's outputs.

Nothing here imports backlog_lab.  Pointwise and cumulative backlog,
Poisson terms and Erlang quantities come from mpmath at 50 significant
digits through the regularised incomplete gamma function; the CLI
references are the outputs the project README documents.

With N ~ Poisson(x) and Q(k) = P(N >= k) (Q(k) = 1 for k <= 0):

    E[(N - P)^+]   = x Q(P) - P Q(P + 1)
    C(t) = int_0^t E[(N(u) - P)^+] du
         = (1 / 2 lam) E[(N - P)(N - P - 1); N >= P]
         = (1 / 2 lam) (x^2 Q(P - 2) - 2 P x Q(P - 1) + P (P + 1) Q(P)),

the second line because int_0^t p_m(lam u) du = Q(m + 1) / lam.

mpmath is imported on first use, so that it stays out of the benchmark's
set-up time.
"""

from __future__ import annotations

from functools import lru_cache

_DPS = 50


def _tail(k: int, x) -> "mpmath.mpf":
    """P(N >= k) for N ~ Poisson(x), x an mpf."""
    import mpmath

    if k <= 0:
        return mpmath.mpf(1)
    if k <= x:
        # The lower series converges slowly for k well below x; the upper
        # function is the complement there.
        return 1 - mpmath.gammainc(k, x, mpmath.inf, regularized=True)
    return mpmath.gammainc(k, 0, x, regularized=True)


@lru_cache(maxsize=4096)
def expected_backlog(x: float, production: int) -> float:
    """E[(N - P)^+] for N ~ Poisson(x)."""
    import mpmath

    with mpmath.workdps(_DPS):
        xm = mpmath.mpf(x)
        return float(xm * _tail(production, xm) - production * _tail(production + 1, xm))


@lru_cache(maxsize=4096)
def cumulative_backlog(lam: float, production: int, t: float) -> float:
    """int_0^t E[(N(u) - P)^+] du for demand rate lam; x = lam * t as the program forms it."""
    import mpmath

    x = lam * t
    if x == 0.0:
        return 0.0
    p = production
    with mpmath.workdps(_DPS):
        xm = mpmath.mpf(x)
        total = xm * xm * _tail(p - 2, xm) - 2 * p * xm * _tail(p - 1, xm) + p * (p + 1) * _tail(p, xm)
        return float(total / (2 * mpmath.mpf(lam)))


@lru_cache(maxsize=4096)
def poisson_tail(x: float, k: int) -> float:
    """P(N >= k) for N ~ Poisson(x); equals the Erlang-k CDF at lam t = x."""
    import mpmath

    with mpmath.workdps(_DPS):
        return float(_tail(k, mpmath.mpf(x)))


@lru_cache(maxsize=4096)
def poisson_term(x: float, n: int) -> float:
    """e^{-x} x^n / n!."""
    import mpmath

    with mpmath.workdps(_DPS):
        xm = mpmath.mpf(x)
        if n == 0:
            return float(mpmath.exp(-xm))
        return float(mpmath.exp(-xm + n * mpmath.log(xm) - mpmath.loggamma(n + 1)))


def erlang_density(lam: float, n: int, t: float) -> float:
    """Density of the n-th arrival epoch at t: lam p_{n-1}(lam t)."""
    return lam * poisson_term(lam * t, n - 1)


# Standard output of the six documented CLI invocations, as the README
# prints it.  cumulative shows only its header and first two rows there.
README_STDOUT = {
    "eval": b"0.67212542296616318\n",
    "invert": b"0.13212020647983569\n",
    "identities": b"all passed\n",
}
README_SIMULATE = ("value,ci99_halfwidth,n_paths", "0.33984412827636917,0.013288337279875259,20000")
README_CUMULATIVE_HEAD = (
    "lambda,production,t,candidate,value,flags",
    "1,2,0.5,original,-3.6455244474504482,",
    "1,2,0.5,original-negexp,0.0021426910057833481,",
)
