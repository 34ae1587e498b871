"""The package root re-exports each module's public list, and nothing else.

A public name is declared once, in the `__all__` of the module that
defines it; `backlog_lab/__init__.py` joins those lists and names none.
"""

import importlib

import backlog_lab

MODULES = ("adjudicator", "closed_forms", "distributions", "errors", "identities", "laplace", "oracles")

PUBLIC = {
    "AccuracyError", "CandidateFormula", "CandidateSummary", "ComparisonReport",
    "ComparisonRow", "CumulativeValue", "DomainError", "EqualityReport",
    "EstimateWithError", "InversionConfig", "McConfig", "ModelParams",
    "ResourceLimitError", "SweepGrid", "adjudicate", "backlog_series_oracle",
    "boundary_diagnostic", "check_identity_a1", "check_identity_a2",
    "check_identity_a3", "check_index_shift", "cumulative_expected_backlog",
    "cumulative_quadrature_oracle", "cumulative_series_oracle", "default_grid",
    "erlang_cdf", "erlang_density", "expected_backlog", "forward_transform",
    "image_backlog_prob", "image_corollary_form", "image_cumulative_backlog",
    "image_expected_backlog", "invert_gaver_stehfest", "monte_carlo_cumulative",
    "nfold_exponential_convolution", "poisson_term", "power_summand",
    "random_table", "render_report", "stehfest_weights", "table_summand",
}


def test_the_root_exports_the_public_set():
    assert set(backlog_lab.__all__) == PUBLIC


def test_the_root_list_is_the_module_lists_joined_with_no_name_twice():
    lists = [importlib.import_module(f"backlog_lab.{name}").__all__ for name in MODULES]
    assert list(backlog_lab.__all__) == [name for names in lists for name in names]
    assert len(backlog_lab.__all__) == len(PUBLIC)


def test_each_name_is_the_object_its_defining_module_lists():
    for name in backlog_lab.__all__:
        value = getattr(backlog_lab, name)
        module = importlib.import_module(value.__module__)
        assert name in module.__all__
        assert getattr(module, name) is value
