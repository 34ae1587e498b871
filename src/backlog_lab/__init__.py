"""Verification laboratory for expected-backlog formulas under Poisson demand.

A make-to-stock system produces P units up front and faces Poisson demand
with rate lam; the pointwise expected backlog E[(D(t) - P)^+] has a clean
closed form, but several incompatible expressions circulate for its running
integral over [0, t].  This package implements every variant literally,
provides independent oracles (certified series summation, pointwise and
cumulative, adaptive quadrature, Monte Carlo path simulation, grid
convolution), closes the Laplace-transform loop numerically in both
directions, checks the underlying summation identities in exact rational
arithmetic, and renders a deterministic comparison report saying which
variants survive.
"""

# Each module's __all__ is its public list, declared where the names are
# defined; the package root re-exports them all.
from . import adjudicator, closed_forms, distributions, errors, identities, laplace, oracles
from .adjudicator import *  # noqa: F401,F403
from .closed_forms import *  # noqa: F401,F403
from .distributions import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .identities import *  # noqa: F401,F403
from .laplace import *  # noqa: F401,F403
from .oracles import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = (
    adjudicator.__all__
    + closed_forms.__all__
    + distributions.__all__
    + errors.__all__
    + identities.__all__
    + laplace.__all__
    + oracles.__all__
)
