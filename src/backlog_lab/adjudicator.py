"""Sweep the candidate formulas over a parameter grid and pass judgment.

Each grid point gets two independent reference values: the cumulative
series oracle (one pass over the Poisson terms of the integrated
defining series, with a certified error bound, which is held to
oracle_tol here) and Gaver-Stehfest inversion of the cumulative image.
Every candidate is evaluated literally at every point and its deviation
recorded; a candidate Matches only if its largest absolute deviation at
the points where it is defined stays below match_tol.  A candidate that
is wrong somewhere it is defined Fails even if it is also undefined
elsewhere; one that agrees wherever it is defined but has undefined
points is reported as Undefined-at-some-points rather than awarded a
clean pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .closed_forms import (
    UNDEFINED_TERM,
    CandidateFormula,
    cumulative_expected_backlog,
)
from .distributions import MAX_PRODUCTION, ModelParams
from .errors import AccuracyError, DomainError, check_int, check_nonnegative, check_positive
from .laplace import (
    INVERSION_T_MIN,
    InversionConfig,
    image_cumulative_backlog,
    invert_gaver_stehfest,
)
# cumulative_quadrature_oracle is no longer called here; it stays bound in
# this module because perfbench/tracer.py wraps it where adjudicate used to
# look it up.
from .oracles import (  # noqa: F401
    cumulative_quadrature_oracle,
    cumulative_series_oracle,
)

__all__ = [
    "SweepGrid",
    "default_grid",
    "ComparisonRow",
    "CandidateSummary",
    "ComparisonReport",
    "adjudicate",
    "boundary_diagnostic",
    "render_report",
]

FLAG_GS_SKIPPED = "gs-skipped"
FLAG_ORACLE_FAILURE = "oracle-failure"
FLAG_BOUNDARY = "boundary-violation"

VERDICT_MATCHES = "Matches"
VERDICT_FAILS = "Fails"
VERDICT_UNDEFINED = "Undefined-at-some-points"

# adjudicate's default tolerances: the largest absolute deviation from the
# oracle that still matches, and the bound the oracle must certify.
MATCH_TOL = 1e-6
ORACLE_TOL = 1e-9

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
        # The axes hold the floats the checks return: ints as the floats they
        # stand for, and -0.0 as the point t = 0.0.
        lambdas = tuple(check_positive(lam, "grid demand rate") for lam in self.lambdas)
        for p in self.productions:
            check_int(p, "grid production level", 0, MAX_PRODUCTION)
        times = tuple(check_nonnegative(t, "grid time") for t in self.times)
        object.__setattr__(self, "lambdas", lambdas)
        object.__setattr__(self, "times", times)
        # A repeated value would evaluate, print and count its points twice.
        for axis, values in (("demand rates", self.lambdas), ("production levels", self.productions)):
            if len(set(values)) != len(values):
                raise DomainError(f"grid {axis} must not repeat")
        # Strictly, so that -0.0 and 0.0 cannot both stand for t = 0.
        if any(not (a < b) for a, b in zip(self.times, self.times[1:])):
            raise DomainError("grid times must be strictly ascending")


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


def adjudicate(
    grid: SweepGrid,
    candidates: tuple[CandidateFormula, ...] | None = None,
    match_tol: float = MATCH_TOL,
    oracle_tol: float = ORACLE_TOL,
    inversion: InversionConfig | None = None,
) -> ComparisonReport:
    """Compare every candidate against the oracles on every grid point.

    The oracle column comes from cumulative_series_oracle, whose bound
    must certify it to oracle_tol, a positive finite float.  match_tol, also
    positive and finite, must exceed ten times oracle_tol so that oracle
    noise can never decide a verdict.  Points where the oracle raises or
    its bound exceeds oracle_tol are flagged and excluded from verdicts;
    times below the inversion floor, and times so large that the image is
    not finite at the inversion's abscissae, skip the Gaver-Stehfest column.
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
    match_tol = check_positive(match_tol, "match tolerance")
    oracle_tol = check_positive(oracle_tol, "oracle tolerance")
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
                oracle_value: float | None = None
                oracle_bound: float | None = None
                try:
                    est = cumulative_series_oracle(params, t)
                    if est.abs_error_bound <= oracle_tol:
                        oracle_value, oracle_bound = est.value, est.abs_error_bound
                except AccuracyError:
                    pass
                if oracle_value is None:
                    point_flags.append(FLAG_ORACLE_FAILURE)

                gs_value: float | None = None
                if t >= INVERSION_T_MIN:
                    try:
                        gs_value = invert_gaver_stehfest(
                            lambda s: image_cumulative_backlog(params, s), t, inversion
                        )
                    except AccuracyError:
                        pass
                if gs_value is None:
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


def boundary_diagnostic(
    lambdas: tuple[float, ...],
    productions: tuple[int, ...],
    candidates: tuple[CandidateFormula, ...] | None = None,
) -> tuple[ComparisonRow, ...]:
    """The rows of adjudicate at t = 0 that carry the boundary-violation flag.

    The cumulative quantity vanishes at t = 0 by definition, so a
    candidate that does not vanish there is structurally broken no matter
    how it behaves later.
    """
    report = adjudicate(SweepGrid(tuple(lambdas), tuple(productions), (0.0,)), candidates)
    return tuple(r for r in report.rows if FLAG_BOUNDARY in r.flags)


def _cell(value: float | int | str | None, json: bool) -> str:
    if isinstance(value, float):
        text = format(value, ".17g")
        return f'"{text}"' if json and not math.isfinite(value) else text
    if value is None:
        return "null" if json else ""
    if isinstance(value, str):
        return f'"{value}"' if json else value
    return str(value)


def _json_template(columns: tuple[str, ...]) -> str:
    """A JSON object with one %s slot per column, to be filled with cell texts."""
    return "{" + ", ".join([f'"{k.replace("%", "%%")}": %s' for k in columns]) + "}"


def _frame(columns: tuple[str, ...], text_rows, format: str) -> str:
    """The CSV document or JSON array of rows whose cells are already texts."""
    if format == "csv":
        lines = [",".join(columns)]
        lines.extend(map(",".join, text_rows))
        return "\n".join(lines) + "\n"
    if format == "json":
        template = "  " + _json_template(columns)
        items = ",\n".join([template % tuple(texts) for texts in text_rows])
        return "[\n" + items + ("\n" if items else "") + "]\n"
    raise DomainError(f"unknown report format {format!r}")


def render_rows(columns: tuple[str, ...], rows, format: str = "csv") -> str:
    """Serialize rows of cells under the named columns, deterministically.

    CSV is a header line and one line per row; JSON is an array with one
    object per line.  Floats are written with 17 significant digits, so
    equal inputs give byte-identical output and every value survives a
    round trip.  Missing values (None) are empty CSV cells and JSON nulls;
    non-finite floats are quoted strings in JSON so the document stays
    parseable.  Strings are tags and flags, written without escaping.
    Each cell is formatted on its own; render_report goes through the same
    cell rule and framing, but lets rows that share objects share texts.
    """
    json = format == "json"
    return _frame(columns, ([_cell(v, json) for v in row] for row in rows), format)


def render_record(columns: tuple[str, ...], row: tuple, format: str = "csv") -> str:
    """One row as render_rows writes it, but a bare JSON object, not an array."""
    if format == "json":
        return _json_template(columns) % tuple([_cell(v, True) for v in row]) + "\n"
    return render_rows(columns, (row,), format)


def _report_cells(rows, json: bool):
    """The cell texts of each report row, in _COLUMNS order.

    The rows of one grid point hold the same lam, production, t, oracle
    and Gaver-Stehfest objects, so a row that holds the very objects of
    the row before it takes that row's texts for those six cells.  Only
    identity counts: equal values may print differently (-0.0 and 0.0).
    """
    prev = None
    for r in rows:
        if (
            prev is None
            or r.lam is not prev.lam
            or r.production is not prev.production
            or r.t is not prev.t
            or r.oracle_value is not prev.oracle_value
            or r.oracle_bound is not prev.oracle_bound
            or r.gs_value is not prev.gs_value
        ):
            lam = _cell(r.lam, json)
            production = _cell(r.production, json)
            t = _cell(r.t, json)
            oracle_value = _cell(r.oracle_value, json)
            oracle_bound = _cell(r.oracle_bound, json)
            gs_value = _cell(r.gs_value, json)
        prev = r
        yield (
            lam,
            production,
            t,
            _cell(r.candidate.value, json),
            _cell(r.candidate_value, json),
            oracle_value,
            oracle_bound,
            gs_value,
            _cell(r.abs_dev, json),
            _cell(r.rel_dev, json),
            _cell(";".join(r.flags), json),
        )


def render_report(report: ComparisonReport, format: str = "csv") -> str:
    """Serialize the comparison rows with render_rows' cell rule and framing.

    CSV and JSON carry the same columns in the same order.  Rows arrive
    already sorted by (lambda, production, t, candidate order).  Missing
    values are a skipped inversion or a failed oracle.  The rows of one
    grid point share their lambda, production, t, oracle and inversion
    objects, and so share those texts: each is formatted once per point,
    not once per candidate.  The output is byte for byte what render_rows
    writes for the same cells.
    """
    return _frame(_COLUMNS, _report_cells(report.rows, format == "json"), format)
