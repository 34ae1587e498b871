"""Sweep the candidate formulas over a parameter grid and pass judgment.

Each grid point gets two independent reference values: the cumulative
series oracle (one pass over the Poisson terms of the integrated
defining series, with a certified error bound) and Gaver-Stehfest
inversion of the cumulative image.  Every candidate is evaluated
literally at every point and its deviation recorded; a candidate Matches
only if its largest absolute deviation at the points where it is defined
stays below match_tol.  A candidate that is wrong somewhere it is
defined Fails even if it is also undefined elsewhere; one that agrees
wherever it is defined but has undefined points is reported as
Undefined-at-some-points rather than awarded a clean pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .closed_forms import (
    UNDEFINED_TERM,
    CandidateFormula,
    cumulative_expected_backlog,
    expected_backlog,
)
from .distributions import ModelParams
from .errors import AccuracyError, DomainError, check_int
from .laplace import (
    INVERSION_T_MIN,
    InversionConfig,
    image_cumulative_backlog,
    image_expected_backlog,
    invert_gaver_stehfest,
)
# cumulative_quadrature_oracle is no longer called here; it stays bound in
# this module because perfbench/tracer.py wraps it where adjudicate used to
# look it up.
from .oracles import (  # noqa: F401
    backlog_series_oracle,
    cumulative_quadrature_oracle,
    cumulative_series_oracle,
)

__all__ = [
    "SweepGrid",
    "default_grid",
    "ComparisonRow",
    "CandidateSummary",
    "ComparisonReport",
    "PointwiseReport",
    "adjudicate",
    "pointwise_check",
    "boundary_diagnostic",
    "render_report",
    "render_rows",
    "render_record",
]

FLAG_GS_SKIPPED = "gs-skipped"
FLAG_ORACLE_FAILURE = "oracle-failure"
FLAG_BOUNDARY = "boundary-violation"

VERDICT_MATCHES = "Matches"
VERDICT_FAILS = "Fails"
VERDICT_UNDEFINED = "Undefined-at-some-points"

_BOUNDARY_TOL = 1e-9

_COLUMNS = (
    "lambda",
    "production",
    "t",
    "candidate",
    "candidate_value",
    "oracle_value",
    "oracle_bound",
    "gs_value",
    "abs_dev",
    "rel_dev",
    "flags",
)


@dataclass(frozen=True)
class SweepGrid:
    """Cartesian sweep over demand rates, production levels, and times."""

    lambdas: tuple[float, ...]
    productions: tuple[int, ...]
    times: tuple[float, ...]

    def __post_init__(self):
        if not self.lambdas or not self.productions or not self.times:
            raise DomainError("sweep grid must have at least one value on every axis")
        for lam in self.lambdas:
            if not math.isfinite(lam) or lam <= 0.0:
                raise DomainError(f"grid demand rate must be positive, got {lam!r}")
        for p in self.productions:
            check_int(p, "grid production level", 0)
        for t in self.times:
            if not math.isfinite(t) or t < 0.0:
                raise DomainError(f"grid time must be non-negative, got {t!r}")
        if list(self.times) != sorted(self.times):
            raise DomainError("grid times must be ascending")


def default_grid() -> SweepGrid:
    """The standard adjudication grid: 3 rates x 6 production levels x 6 times."""
    return SweepGrid(
        lambdas=(0.5, 1.0, 2.0),
        productions=(1, 2, 3, 4, 5, 6),
        times=(0.25, 0.5, 1.0, 2.0, 5.0, 10.0),
    )


@dataclass(frozen=True)
class ComparisonRow:
    """One candidate at one grid point, with both reference values."""

    lam: float
    production: int
    t: float
    candidate: CandidateFormula
    candidate_value: float
    oracle_value: float | None
    oracle_bound: float | None
    gs_value: float | None
    abs_dev: float | None
    rel_dev: float | None
    flags: tuple[str, ...]


@dataclass(frozen=True)
class CandidateSummary:
    """Per-candidate verdict and worst deviations over the defined points."""

    candidate: CandidateFormula
    n_points: int
    n_undefined: int
    max_abs_dev: float | None
    max_rel_dev: float | None
    verdict: str


@dataclass(frozen=True)
class ComparisonReport:
    grid: SweepGrid
    match_tol: float
    oracle_tol: float
    rows: tuple[ComparisonRow, ...]
    summary: tuple[CandidateSummary, ...]


@dataclass(frozen=True)
class PointwiseReport:
    """Three-way check of the pointwise expected backlog at one point."""

    lam: float
    production: int
    t: float
    closed_value: float
    series_value: float
    series_bound: float
    gs_value: float | None
    abs_dev_series: float
    abs_dev_gs: float | None
    flags: tuple[str, ...]


def adjudicate(
    grid: SweepGrid,
    candidates: tuple[CandidateFormula, ...] | None = None,
    match_tol: float = 1e-6,
    oracle_tol: float = 1e-9,
    inversion: InversionConfig | None = None,
) -> ComparisonReport:
    """Compare every candidate against the oracles on every grid point.

    The oracle column comes from cumulative_series_oracle, certified to
    oracle_tol.  match_tol must exceed ten times oracle_tol so that oracle
    noise can never decide a verdict.  Points where the oracle fails to
    certify are flagged and excluded from verdicts; times below the
    inversion floor simply skip the Gaver-Stehfest column.
    """
    if candidates is None:
        candidates = tuple(CandidateFormula)
    else:
        candidates = tuple(candidates)
        for c in candidates:
            if not isinstance(c, CandidateFormula):
                raise DomainError(f"unknown candidate {c!r}")
        if not candidates:
            raise DomainError("at least one candidate is required")
    match_tol = float(match_tol)
    oracle_tol = float(oracle_tol)
    if not (match_tol > 10.0 * oracle_tol):
        raise DomainError(
            f"match tolerance {match_tol:g} must exceed 10x the oracle tolerance {oracle_tol:g}"
        )
    if inversion is None:
        inversion = InversionConfig()

    rows: list[ComparisonRow] = []
    for lam in sorted(grid.lambdas):
        for production in sorted(grid.productions):
            params = ModelParams(lam, production)
            for t in grid.times:
                point_flags: list[str] = []
                oracle_value: float | None
                oracle_bound: float | None
                try:
                    est = cumulative_series_oracle(params, t, oracle_tol)
                    oracle_value, oracle_bound = est.value, est.abs_error_bound
                except AccuracyError:
                    oracle_value = oracle_bound = None
                    point_flags.append(FLAG_ORACLE_FAILURE)

                gs_value: float | None
                if t >= INVERSION_T_MIN:
                    gs_value = invert_gaver_stehfest(
                        lambda s: image_cumulative_backlog(params, s), t, inversion
                    )
                else:
                    gs_value = None
                    point_flags.append(FLAG_GS_SKIPPED)

                for candidate in candidates:
                    result = cumulative_expected_backlog(params, t, candidate)
                    flags = list(result.warnings) + point_flags
                    if t == 0.0 and abs(result.value) > _BOUNDARY_TOL:
                        flags.append(FLAG_BOUNDARY)
                    if oracle_value is not None:
                        abs_dev = abs(result.value - oracle_value)
                        rel_dev = abs_dev / max(abs(oracle_value), 1.0)
                    else:
                        abs_dev = rel_dev = None
                    rows.append(
                        ComparisonRow(
                            lam=lam,
                            production=production,
                            t=t,
                            candidate=candidate,
                            candidate_value=result.value,
                            oracle_value=oracle_value,
                            oracle_bound=oracle_bound,
                            gs_value=gs_value,
                            abs_dev=abs_dev,
                            rel_dev=rel_dev,
                            flags=tuple(flags),
                        )
                    )

    summary = []
    for candidate in candidates:
        mine = [r for r in rows if r.candidate is candidate]
        undefined = [r for r in mine if UNDEFINED_TERM in r.flags]
        judged = [
            r for r in mine if UNDEFINED_TERM not in r.flags and r.abs_dev is not None
        ]
        max_abs = max((r.abs_dev for r in judged), default=None)
        max_rel = max((r.rel_dev for r in judged), default=None)
        if not judged:
            verdict = VERDICT_UNDEFINED
        elif max_abs is not None and not (max_abs < match_tol):
            verdict = VERDICT_FAILS
        elif undefined:
            verdict = VERDICT_UNDEFINED
        else:
            verdict = VERDICT_MATCHES
        summary.append(
            CandidateSummary(
                candidate=candidate,
                n_points=len(mine),
                n_undefined=len(undefined),
                max_abs_dev=max_abs,
                max_rel_dev=max_rel,
                verdict=verdict,
            )
        )

    return ComparisonReport(
        grid=grid,
        match_tol=match_tol,
        oracle_tol=oracle_tol,
        rows=tuple(rows),
        summary=tuple(summary),
    )


def pointwise_check(
    params: ModelParams,
    t: float,
    series_tol: float = 1e-12,
    inversion: InversionConfig | None = None,
) -> PointwiseReport:
    """Check the pointwise closed form against the series oracle and the
    Gaver-Stehfest inversion of the pointwise image at a single point."""
    if inversion is None:
        inversion = InversionConfig()
    closed = expected_backlog(params, t)
    series = backlog_series_oracle(params, t, series_tol)
    flags: tuple[str, ...] = ()
    if t >= INVERSION_T_MIN:
        gs = invert_gaver_stehfest(
            lambda s: image_expected_backlog(params, s), t, inversion
        )
        gs_dev: float | None = abs(closed - gs)
    else:
        gs = None
        gs_dev = None
        flags = (FLAG_GS_SKIPPED,)
    return PointwiseReport(
        lam=params.lam,
        production=params.production,
        t=float(t),
        closed_value=closed,
        series_value=series.value,
        series_bound=series.abs_error_bound,
        gs_value=gs,
        abs_dev_series=abs(closed - series.value),
        abs_dev_gs=gs_dev,
        flags=flags,
    )


def boundary_diagnostic(
    lambdas: tuple[float, ...],
    productions: tuple[int, ...],
    candidates: tuple[CandidateFormula, ...] | None = None,
    tol: float = _BOUNDARY_TOL,
) -> tuple[ComparisonRow, ...]:
    """Evaluate every candidate at t = 0 and return the offending rows.

    The cumulative quantity vanishes at t = 0 by definition, so any
    candidate with |value| > tol there is structurally broken no matter how
    it behaves later.  The returned rows carry the boundary-violation flag.
    """
    if candidates is None:
        candidates = tuple(CandidateFormula)
    offenders = []
    for lam in sorted(lambdas):
        for production in sorted(productions):
            params = ModelParams(lam, production)
            for candidate in candidates:
                result = cumulative_expected_backlog(params, 0.0, candidate)
                if abs(result.value) > tol:
                    offenders.append(
                        ComparisonRow(
                            lam=lam,
                            production=production,
                            t=0.0,
                            candidate=candidate,
                            candidate_value=result.value,
                            oracle_value=0.0,
                            oracle_bound=0.0,
                            gs_value=None,
                            abs_dev=abs(result.value),
                            rel_dev=abs(result.value),
                            flags=tuple(result.warnings) + (FLAG_GS_SKIPPED, FLAG_BOUNDARY),
                        )
                    )
    return tuple(offenders)


def _cell(value: float | int | str | None, json: bool) -> str:
    if isinstance(value, float):
        text = format(value, ".17g")
        return f'"{text}"' if json and not math.isfinite(value) else text
    if value is None:
        return "null" if json else ""
    if isinstance(value, str):
        return f'"{value}"' if json else value
    return str(value)


def _json_object(columns: tuple[str, ...], row: tuple) -> str:
    return "{" + ", ".join([f'"{k}": {_cell(v, True)}' for k, v in zip(columns, row)]) + "}"


def render_rows(columns: tuple[str, ...], rows, format: str = "csv") -> str:
    """Serialize rows of cells under the named columns, deterministically.

    CSV is a header line and one line per row; JSON is an array with one
    object per line.  Floats are written with 17 significant digits, so
    equal inputs give byte-identical output and every value survives a
    round trip.  Missing values (None) are empty CSV cells and JSON nulls;
    non-finite floats are quoted strings in JSON so the document stays
    parseable.  Strings are tags and flags, written without escaping.
    """
    if format == "csv":
        lines = [",".join(columns)]
        lines.extend(",".join([_cell(v, False) for v in row]) for row in rows)
        return "\n".join(lines) + "\n"
    if format == "json":
        items = ",\n".join("  " + _json_object(columns, row) for row in rows)
        return "[\n" + items + ("\n" if items else "") + "]\n"
    raise DomainError(f"unknown report format {format!r}")


def render_record(columns: tuple[str, ...], row: tuple, format: str = "csv") -> str:
    """One row as render_rows writes it, but a bare JSON object, not an array."""
    if format == "json":
        return _json_object(columns, row) + "\n"
    return render_rows(columns, (row,), format)


def render_report(report: ComparisonReport, format: str = "csv") -> str:
    """Serialize the comparison rows with render_rows.

    CSV and JSON carry the same columns in the same order.  Rows arrive
    already sorted by (lambda, production, t, candidate order).  Missing
    values are a skipped inversion or a failed oracle.
    """
    return render_rows(
        _COLUMNS,
        [
            (
                # Grid axes may hold ints; they print as the floats they stand for.
                float(r.lam),
                r.production,
                float(r.t),
                r.candidate.value,
                r.candidate_value,
                r.oracle_value,
                r.oracle_bound,
                r.gs_value,
                r.abs_dev,
                r.rel_dev,
                ";".join(r.flags),
            )
            for r in report.rows
        ],
        format,
    )
