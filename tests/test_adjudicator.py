"""Grid sweeps, verdicts, the boundary diagnostic, and report serialization.

The verdict fixture in TestDefaultGridVerdicts was established by running
the quadrature oracle first and freezing what it reported, never the other
way around.  If an implementation change flips one of these verdicts, that
is a finding, and this file is where it should surface.
"""

import csv
import dataclasses
import io
import json
import math

import pytest

from backlog_lab import adjudicator
from backlog_lab.adjudicator import (
    _COLUMNS,
    FLAG_BOUNDARY,
    FLAG_GS_SKIPPED,
    ComparisonReport,
    SweepGrid,
    _cell,
    adjudicate,
    boundary_diagnostic,
    default_grid,
    render_report,
    render_rows,
)
from backlog_lab.closed_forms import UNDEFINED_TERM, CandidateFormula
from backlog_lab.errors import DomainError
from backlog_lab.laplace import InversionConfig

MATCHING = {CandidateFormula.ORIGINAL_NEGEXP, CandidateFormula.COMPACT}


@pytest.fixture(scope="module")
def report():
    return adjudicate(default_grid(), inversion=InversionConfig(order=18))


@pytest.fixture(scope="module")
def small_report():
    grid = SweepGrid(lambdas=(1.0,), productions=(1,), times=(0.5, 1.0))
    return adjudicate(grid)


class TestSweepGrid:
    def test_default_axes(self):
        grid = default_grid()
        assert grid.lambdas == (0.5, 1.0, 2.0)
        assert grid.productions == (1, 2, 3, 4, 5, 6)
        assert grid.times == (0.25, 0.5, 1.0, 2.0, 5.0, 10.0)

    def test_rejects_empty_axes(self):
        with pytest.raises(DomainError):
            SweepGrid(lambdas=(), productions=(1,), times=(1.0,))

    def test_rejects_unsorted_times(self):
        with pytest.raises(DomainError):
            SweepGrid(lambdas=(1.0,), productions=(1,), times=(2.0, 1.0))

    def test_stores_negative_zero_time_as_zero(self):
        grid = SweepGrid(lambdas=(1.0,), productions=(1,), times=(-0.0, 1.0))
        assert math.copysign(1.0, grid.times[0]) == 1.0

    def test_rejects_bad_members(self):
        with pytest.raises(DomainError):
            SweepGrid(lambdas=(-1.0,), productions=(1,), times=(1.0,))
        with pytest.raises(DomainError):
            SweepGrid(lambdas=(1.0,), productions=(-1,), times=(1.0,))

    @pytest.mark.parametrize("axes", [
        ((1.0, 1.0), (1,), (1.0,)),
        ((1, 1.0), (1,), (1.0,)),
        ((1.0, 2.0, 1.0), (1,), (1.0,)),
        ((1.0,), (2, 2), (1.0,)),
        ((1.0,), (1,), (1.0, 1.0)),
        ((1.0,), (1,), (0.0, 0.5, 0.5, 1.0)),
        ((1.0,), (1,), (-0.0, 0.0)),
    ])
    def test_rejects_repeated_values(self, axes):
        """A repeated value would put the same point in the report twice."""
        with pytest.raises(DomainError):
            SweepGrid(*axes)


class TestAdjudicate:
    def test_tolerance_separation_enforced(self):
        with pytest.raises(DomainError):
            adjudicate(default_grid(), match_tol=1e-6, oracle_tol=1e-6)

    def test_every_point_times_candidate_appears_once(self):
        grid = SweepGrid(lambdas=(1.0,), productions=(1, 2), times=(0.5, 1.0))
        report = adjudicate(grid)
        keys = [(r.lam, r.production, r.t, r.candidate) for r in report.rows]
        assert len(keys) == len(set(keys)) == 2 * 2 * 6

    def test_rows_sorted_by_grid_coordinates(self):
        grid = SweepGrid(lambdas=(0.5, 1.0), productions=(2, 1), times=(0.5, 1.0))
        report = adjudicate(grid)
        coords = [(r.lam, r.production, r.t) for r in report.rows]
        assert coords == sorted(coords)

    def test_zero_stock_grid_collapses(self):
        """Every variant equals lam t^2 / 2 when nothing competes with
        demand.  The two variants whose printed forms contain an undefined
        factorial at this stock level still match numerically but are
        reported as undefined rather than silently blessed."""
        grid = SweepGrid(lambdas=(1.0,), productions=(0,), times=(1.0, 2.0))
        report = adjudicate(grid)
        for row in report.rows:
            assert row.candidate_value == pytest.approx(row.oracle_value, abs=1e-6)
        verdicts = {s.candidate: s.verdict for s in report.summary}
        undefined_here = {CandidateFormula.NOTE, CandidateFormula.EQ10}
        for candidate, verdict in verdicts.items():
            if candidate in undefined_here:
                assert verdict == "Undefined-at-some-points"
            else:
                assert verdict == "Matches"

    def test_zero_time_flags_nonvanishing_candidates(self):
        grid = SweepGrid(lambdas=(1.0,), productions=(1,), times=(0.0,))
        report = adjudicate(grid)
        for row in report.rows:
            assert FLAG_GS_SKIPPED in row.flags
            if abs(row.candidate_value) > 1e-9:
                assert FLAG_BOUNDARY in row.flags
        flagged = {r.candidate for r in report.rows if FLAG_BOUNDARY in r.flags}
        assert flagged == {
            CandidateFormula.WOLFRAM,
            CandidateFormula.NOTE,
            CandidateFormula.EQ10,
        }

    def test_subset_of_candidates(self):
        grid = SweepGrid(lambdas=(1.0,), productions=(2,), times=(1.0,))
        report = adjudicate(grid, candidates=(CandidateFormula.COMPACT,))
        assert len(report.rows) == 1
        assert report.rows[0].candidate is CandidateFormula.COMPACT


class TestDefaultGridVerdicts:
    """Frozen verdict fixture for the default grid at inversion order 18."""

    def test_verdict_pattern(self, report):
        verdicts = {s.candidate: s.verdict for s in report.summary}
        assert verdicts == {
            CandidateFormula.ORIGINAL: "Fails",
            CandidateFormula.ORIGINAL_NEGEXP: "Matches",
            CandidateFormula.WOLFRAM: "Fails",
            CandidateFormula.NOTE: "Fails",
            CandidateFormula.EQ10: "Fails",
            CandidateFormula.COMPACT: "Matches",
        }

    def test_matching_candidates_sit_far_below_the_tolerance(self, report):
        for s in report.summary:
            if s.candidate in MATCHING:
                assert s.max_abs_dev < 1e-9

    def test_failing_offsets_have_the_predicted_size(self, report):
        # The shared polynomial error is P(P+1)/lam, largest at lam = 0.5,
        # P = 6: exactly 84.
        by_candidate = {s.candidate: s for s in report.summary}
        assert by_candidate[CandidateFormula.WOLFRAM].max_abs_dev == pytest.approx(84.0, rel=1e-12)
        assert by_candidate[CandidateFormula.EQ10].max_abs_dev == pytest.approx(84.0, rel=1e-12)
        assert by_candidate[CandidateFormula.NOTE].max_abs_dev == pytest.approx(84.0, rel=1e-4)
        assert by_candidate[CandidateFormula.ORIGINAL].max_abs_dev > 1e12

    def test_undefined_rows_are_exactly_the_unit_stock_slice(self, report):
        by_candidate = {s.candidate: s for s in report.summary}
        assert by_candidate[CandidateFormula.NOTE].n_undefined == 18
        for candidate, s in by_candidate.items():
            if candidate is not CandidateFormula.NOTE:
                assert s.n_undefined == 0

    def test_oracle_bounds_certified(self, report):
        for row in report.rows:
            assert row.oracle_bound is not None
            assert row.oracle_bound < 1e-9

    def test_undefined_term_rows_carry_the_flag(self, report):
        flagged = [r for r in report.rows if UNDEFINED_TERM in r.flags]
        assert len(flagged) == 18
        assert {r.candidate for r in flagged} == {CandidateFormula.NOTE}
        assert {r.production for r in flagged} == {1}


class TestBoundaryDiagnostic:
    def test_flags_the_three_offset_variants(self):
        offenders = boundary_diagnostic((0.5, 1.0, 2.0), (1, 2, 3))
        names = {r.candidate for r in offenders}
        assert names == {
            CandidateFormula.WOLFRAM,
            CandidateFormula.NOTE,
            CandidateFormula.EQ10,
        }
        for r in offenders:
            assert r.t == 0.0
            assert abs(r.candidate_value) > 1e-9
            assert FLAG_BOUNDARY in r.flags
            # The offset is the polynomial tail left standing at t = 0.
            p = r.production
            assert r.candidate_value == pytest.approx(-p * (p + 1) / r.lam, rel=1e-9, abs=1e-9)

    def test_rows_carry_the_zero_truth_and_no_inversion(self):
        offenders = boundary_diagnostic((2, 0.5), (3, 1))
        # Sorted like adjudicate's rows; three offenders at each point.
        coords = [(r.lam, r.production) for r in offenders]
        assert coords == [(lam, p) for lam in (0.5, 2) for p in (1, 3) for _ in range(3)]
        for r in offenders:
            assert r.oracle_value == 0.0 and r.oracle_bound == 0.0
            assert r.gs_value is None
            assert r.abs_dev == r.rel_dev == abs(r.candidate_value)
            assert FLAG_GS_SKIPPED in r.flags

    def test_rejects_an_empty_axis(self):
        with pytest.raises(DomainError):
            boundary_diagnostic((), (1,))
        with pytest.raises(DomainError):
            boundary_diagnostic((1.0,), ())


class TestRenderReport:
    def test_csv_header_and_shape(self, small_report):
        text = render_report(small_report, format="csv")
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == [
            "lambda", "production", "t", "candidate", "candidate_value",
            "oracle_value", "oracle_bound", "gs_value", "abs_dev", "rel_dev",
            "flags",
        ]
        assert len(rows) == 1 + len(small_report.rows)

    def test_empty_report_is_header_only(self):
        grid = SweepGrid(lambdas=(1.0,), productions=(1,), times=(0.5,))
        report = adjudicate(grid)
        empty = ComparisonReport(
            grid=report.grid,
            match_tol=report.match_tol,
            oracle_tol=report.oracle_tol,
            rows=(),
            summary=report.summary,
        )
        text = render_report(empty, format="csv")
        assert text.count("\n") == 1
        assert text.startswith("lambda,")

    def test_json_round_trips(self, small_report):
        text = render_report(small_report, format="json")
        data = json.loads(text)
        assert len(data) == len(small_report.rows)
        first = data[0]
        assert first["lambda"] == 1.0
        assert first["candidate"] in {c.value for c in CandidateFormula}

    def test_byte_determinism(self, small_report):
        a = render_report(small_report, format="csv")
        b = render_report(small_report, format="csv")
        assert a == b
        grid = SweepGrid(lambdas=(1.0,), productions=(1,), times=(0.5, 1.0))
        c = render_report(adjudicate(grid), format="csv")
        assert a == c

    def test_seventeen_digit_serialization(self, small_report):
        text = render_report(small_report, format="csv")
        # Full double precision must survive a parse round trip.
        for row in csv.DictReader(io.StringIO(text)):
            matching = [
                r for r in small_report.rows
                if r.candidate.value == row["candidate"]
                and float(row["t"]) == r.t
            ]
            assert matching
            assert float(row["candidate_value"]) == matching[0].candidate_value

    def test_unknown_format_rejected(self, small_report):
        with pytest.raises(DomainError):
            render_report(small_report, format="xml")


_SHARED_FIELDS = ("lam", "production", "t", "oracle_value", "oracle_bound", "gs_value")


def _fresh(value):
    """An equal value that is not the same object (floats only; ints are interned)."""
    return float(repr(value)) if isinstance(value, float) else value


def _no_shared_objects(report):
    rows = tuple(
        dataclasses.replace(r, **{name: _fresh(getattr(r, name)) for name in _SHARED_FIELDS})
        for r in report.rows
    )
    return dataclasses.replace(report, rows=rows)


def _one_field_changed_per_row(report):
    """Each row holds its predecessor's objects, bar one shared field moved by one."""
    rows = [report.rows[0]]
    for i in range(1, len(report.rows)):
        name = _SHARED_FIELDS[i % len(_SHARED_FIELDS)]
        rows.append(dataclasses.replace(rows[-1], **{name: getattr(rows[-1], name) + 1}))
    return dataclasses.replace(report, rows=tuple(rows))


def _reversed(report):
    return dataclasses.replace(report, rows=tuple(reversed(report.rows)))


def _alternate_signed_zero(report):
    rows = tuple(
        dataclasses.replace(r, t=-0.0) if i % 2 else r for i, r in enumerate(report.rows)
    )
    return dataclasses.replace(report, rows=rows)


def _reference_cells(report):
    """The report's cells built row by row, with nothing shared between rows."""
    return [
        (
            float(r.lam), r.production, float(r.t), r.candidate.value, r.candidate_value,
            r.oracle_value, r.oracle_bound, r.gs_value, r.abs_dev, r.rel_dev,
            ";".join(r.flags),
        )
        for r in report.rows
    ]


_REUSE_CASES = {
    "default-grid": lambda: adjudicate(default_grid()),
    # t = 0 skips the inversion, so the gs cells are None.
    "zero-time": lambda: adjudicate(SweepGrid((0.5, 1.0), (0, 2), (0.0, 1.0))),
    # original overflows to a non-finite value, quoted in json.
    "overflow": lambda: adjudicate(SweepGrid((100.0,), (2, 3), (1.0, 8.0, 9.0))),
    "int-lambdas": lambda: adjudicate(SweepGrid((1, 2), (1, 3), (0.5, 2))),
    "no-shared-objects": lambda: _no_shared_objects(adjudicate(default_grid())),
    "reversed": lambda: _reversed(adjudicate(default_grid())),
    "one-field-changed": lambda: _one_field_changed_per_row(adjudicate(default_grid())),
    # Equal but not the same: -0.0 == 0.0, yet they print differently.
    "signed-zero-times": lambda: _alternate_signed_zero(adjudicate(SweepGrid((1.0,), (0, 1), (0.0,)))),
}


class TestRenderReportReuse:
    """render_report shares texts between rows that hold the same objects,
    and writes exactly what render_rows writes for the same cells."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("case", sorted(_REUSE_CASES))
    def test_equals_rendering_row_by_row(self, case, fmt):
        report = _REUSE_CASES[case]()
        assert render_report(report, fmt) == render_rows(_COLUMNS, _reference_cells(report), fmt)

    def test_overflow_case_holds_a_non_finite_value(self):
        report = _REUSE_CASES["overflow"]()
        assert any(not math.isfinite(r.candidate_value) for r in report.rows)
        assert '"-inf"' in render_report(report, "json")

    def test_formats_a_points_floats_once(self, monkeypatch):
        report = adjudicate(default_grid())
        floats = []

        def counting_cell(value, json):
            if isinstance(value, float):
                floats.append(value)
            return _cell(value, json)

        monkeypatch.setattr(adjudicator, "_cell", counting_cell)
        render_report(report, "csv")
        n_points = len({(r.lam, r.production, r.t) for r in report.rows})
        # Three per row (candidate value and both deviations), five per
        # point (lambda, t, oracle value and bound, inversion).
        assert len(floats) == 3 * len(report.rows) + 5 * n_points == 2484


class TestVerdictStability:
    def test_refining_the_oracle_changes_nothing(self):
        """A smaller sanity version of the stability meta-check; the full
        default-grid version runs in the acceptance suite."""
        grid = SweepGrid(lambdas=(1.0,), productions=(2, 4), times=(0.5, 2.0, 5.0))
        coarse = adjudicate(grid, oracle_tol=1e-9)
        fine = adjudicate(grid, oracle_tol=1e-10)
        assert [s.verdict for s in coarse.summary] == [s.verdict for s in fine.summary]
