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

from .adjudicator import (
    CandidateSummary,
    ComparisonReport,
    ComparisonRow,
    SweepGrid,
    adjudicate,
    boundary_diagnostic,
    default_grid,
    render_report,
)
from .closed_forms import (
    CandidateFormula,
    CumulativeValue,
    cumulative_expected_backlog,
    expected_backlog,
)
from .distributions import (
    ModelParams,
    erlang_cdf,
    erlang_density,
    poisson_term,
)
from .errors import AccuracyError, DomainError, ResourceLimitError
from .identities import (
    EqualityReport,
    check_identity_a1,
    check_identity_a2,
    check_identity_a3,
    check_index_shift,
    power_summand,
    random_table,
    table_summand,
)
from .laplace import (
    InversionConfig,
    forward_transform,
    image_backlog_prob,
    image_corollary_form,
    image_cumulative_backlog,
    image_expected_backlog,
    invert_gaver_stehfest,
    stehfest_weights,
)
from .oracles import (
    EstimateWithError,
    McConfig,
    backlog_series_oracle,
    cumulative_quadrature_oracle,
    cumulative_series_oracle,
    monte_carlo_cumulative,
    nfold_exponential_convolution,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "CandidateFormula",
    "CandidateSummary",
    "ComparisonReport",
    "ComparisonRow",
    "CumulativeValue",
    "DomainError",
    "EqualityReport",
    "EstimateWithError",
    "InversionConfig",
    "McConfig",
    "ModelParams",
    "ResourceLimitError",
    "SweepGrid",
    "adjudicate",
    "backlog_series_oracle",
    "boundary_diagnostic",
    "check_identity_a1",
    "check_identity_a2",
    "check_identity_a3",
    "check_index_shift",
    "cumulative_expected_backlog",
    "cumulative_quadrature_oracle",
    "cumulative_series_oracle",
    "default_grid",
    "erlang_cdf",
    "erlang_density",
    "expected_backlog",
    "forward_transform",
    "image_backlog_prob",
    "image_corollary_form",
    "image_cumulative_backlog",
    "image_expected_backlog",
    "invert_gaver_stehfest",
    "monte_carlo_cumulative",
    "nfold_exponential_convolution",
    "poisson_term",
    "power_summand",
    "random_table",
    "render_report",
    "stehfest_weights",
    "table_summand",
]
