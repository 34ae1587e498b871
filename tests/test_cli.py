"""Command-line behavior: parsing, exit codes, stream discipline."""

import csv
import io
import json
import math
import time
from fractions import Fraction

import pytest

from backlog_lab import cli
from backlog_lab.adjudicator import adjudicate, default_grid, render_report
from backlog_lab.cli import main
from backlog_lab.identities import EqualityReport
from backlog_lab.laplace import InversionConfig

SUBCOMMANDS = ("eval", "cumulative", "invert", "simulate", "identities", "adjudicate")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_zero_stock(self, capsys):
        code, out, err = run(capsys, "eval", "--lambda", "1", "--production", "0", "--t", "3")
        assert code == 0
        assert out == "3\n"

    def test_unit_point(self, capsys):
        code, out, _ = run(capsys, "eval", "--lambda", "1", "--production", "1", "--t", "1")
        assert code == 0
        assert float(out) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_negative_time_is_domain_error(self, capsys):
        code, out, err = run(capsys, "eval", "--lambda", "1", "--production", "0", "--t", "-1")
        assert code == 1
        assert out == ""
        assert "domain error" in err

    def test_overflowing_demand_is_domain_error(self, capsys):
        code, out, err = run(
            capsys, "eval", "--lambda", "1e300", "--production", "0", "--t", "1e300"
        )
        assert code == 1
        assert out == ""
        assert "lambda*t" in err

    def test_negative_zero_time_prints_zero(self, capsys):
        # The bare argument used to come back as the value: -0.
        code, out, _ = run(capsys, "eval", "--lambda", "1", "--production", "0", "--t=-0")
        assert (code, out) == (0, "0\n")

    def test_production_far_above_demand_prints_zero(self, capsys):
        # The lower-sum form printed -1.1084484867751598e-06 here.
        code, out, _ = run(capsys, "eval", "--lambda", "30182.4", "--production", "60365", "--t", "1")
        assert code == 0
        assert out == "0\n"

    def test_missing_flag_is_usage_error(self, capsys):
        code, out, err = run(capsys, "eval", "--lambda", "1", "--t", "1")
        assert code == 3
        assert out == ""


class TestCumulative:
    def test_boundary_point(self, capsys):
        code, out, _ = run(
            capsys, "cumulative", "--lambda", "1", "--production", "1",
            "--t", "0", "--candidate", "compact",
        )
        assert code == 0
        assert out == "0\n"

    def test_time_list_csv(self, capsys):
        code, out, _ = run(
            capsys, "cumulative", "--lambda", "1", "--production", "2",
            "--t-list", "0.5,1,2", "--candidate", "compact", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 3
        assert float(rows[2]["value"]) == pytest.approx(0.32332358381693649, rel=1e-12)

    def test_negative_zero_time_prints_as_zero(self, capsys):
        code, out, _ = run(
            capsys, "cumulative", "--lambda", "1", "--production", "2",
            "--t-list=-0,1", "--candidate", "compact",
        )
        assert code == 0
        assert out.splitlines()[1].startswith("1,2,0,compact,")

    def test_single_value_carries_its_warning_to_stderr(self, capsys):
        code, out, err = run(
            capsys, "cumulative", "--lambda", "1", "--production", "0",
            "--t", "1", "--candidate", "note",
        )
        assert (code, out, err) == (0, "0.5\n", "warning: undefined-term\n")

    def test_malformed_time_list_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "cumulative", "--lambda", "1", "--production", "1", "--t-list", "1,,2",
        )
        assert code == 3
        assert out == ""
        assert "expected comma-separated numbers" in err

    def test_all_candidates_json(self, capsys):
        code, out, _ = run(
            capsys, "cumulative", "--lambda", "1", "--production", "2",
            "--t", "1", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert {d["candidate"] for d in data} == {
            "original", "original-negexp", "wolfram", "note", "eq10", "compact",
        }

    def test_overflowing_original_prints_minus_inf(self, capsys):
        code, out, err = run(
            capsys, "cumulative", "--lambda", "1", "--production", "500",
            "--t", "1000", "--candidate", "original",
        )
        assert (code, out, err) == (0, "-inf\n", "")

    def test_t_and_t_list_conflict(self, capsys):
        code, _, _ = run(
            capsys, "cumulative", "--lambda", "1", "--production", "1",
            "--t", "1", "--t-list", "1,2",
        )
        assert code == 3

    def test_raw_power_sums_past_the_largest_double_print_the_divergence(self, capsys):
        argv = ("cumulative", "--lambda", "1", "--candidate", "original")
        code, out, err = run(capsys, *argv, "--production", "1000", "--t", "750")
        assert code == 0
        assert "Traceback" not in err
        assert out == run(capsys, *argv, "--production", "5", "--t", "800")[1] == "-inf\n"
        code, out, err = run(
            capsys, "adjudicate", "--lambda", "1", "--production", "1000", "--t-list", "750"
        )
        assert code == 0
        assert "Traceback" not in err
        rows = {row["candidate"]: row for row in csv.DictReader(io.StringIO(out))}
        assert rows["original"]["candidate_value"] == "-inf"

    def test_candidate_that_is_not_a_number_is_accuracy_error(self, capsys):
        # P(P+1)/(2 lam) and the bracket over 2 lam are both inf here; the
        # NaN of compact and original-negexp was printed with exit 0.
        code, out, err = run(
            capsys, "cumulative", "--lambda", "3.06e-300", "--production", "156197",
            "--t", "1.49e-162", "--candidate", "all",
        )
        assert code == 2
        assert out == ""
        assert "not a number" in err

    def test_unknown_candidate(self, capsys):
        code, _, _ = run(
            capsys, "cumulative", "--lambda", "1", "--production", "1",
            "--t", "1", "--candidate", "bogus",
        )
        assert code == 3


class TestInvert:
    def test_cumulative_image(self, capsys):
        code, out, _ = run(
            capsys, "invert", "--lambda", "1", "--production", "1", "--t", "1",
        )
        assert code == 0
        assert float(out) == pytest.approx(0.13212020647983569, rel=1e-12)

    def test_expected_image_at_higher_order(self, capsys):
        code, out, _ = run(
            capsys, "invert", "--lambda", "1", "--production", "2", "--t", "2",
            "--image", "expected", "--gs-order", "18",
        )
        assert code == 0
        assert float(out) == pytest.approx(0.5413404258627722, rel=1e-12)

    def test_bad_order_is_domain_error(self, capsys):
        code, out, err = run(
            capsys, "invert", "--lambda", "1", "--production", "1", "--t", "1",
            "--gs-order", "13",
        )
        assert code == 1
        assert out == ""
        assert "domain error" in err

    def test_time_below_floor(self, capsys):
        code, out, err = run(
            capsys, "invert", "--lambda", "1", "--production", "1", "--t", "0.0001",
        )
        assert code == 1
        assert "0.001" in err


class TestSimulate:
    def test_deterministic_output(self, capsys):
        args = (
            "simulate", "--lambda", "1", "--production", "2", "--t", "2",
            "--paths", "20000", "--seed", "42",
        )
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        row = next(csv.DictReader(io.StringIO(out1)))
        assert float(row["value"]) == pytest.approx(0.33984412827636917, rel=1e-15)

    def test_environment_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("BACKLOG_LAB_SEED", "42")
        args = ("simulate", "--lambda", "1", "--production", "2", "--t", "2", "--paths", "5000")
        _, out_env, _ = run(capsys, *args)
        _, out_flag, _ = run(capsys, *args, "--seed", "42")
        assert out_env == out_flag

    def test_explicit_seed_beats_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("BACKLOG_LAB_SEED", "1")
        args = ("simulate", "--lambda", "1", "--production", "2", "--t", "2", "--paths", "5000")
        _, out_a, _ = run(capsys, *args, "--seed", "2")
        monkeypatch.setenv("BACKLOG_LAB_SEED", "7")
        _, out_b, _ = run(capsys, *args, "--seed", "2")
        assert out_a == out_b

    @pytest.mark.parametrize("raw", ["abc", "18446744073709551616"])
    def test_bad_environment_seed_is_usage_error(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("BACKLOG_LAB_SEED", raw)
        code, out, err = run(
            capsys, "simulate", "--lambda", "1", "--production", "2", "--t", "2",
            "--paths", "100",
        )
        assert code == 3
        assert out == ""
        assert "BACKLOG_LAB_SEED" in err

    def test_single_path_json_is_parseable(self, capsys):
        # One path has no sample variance, so the half-width is infinite.
        code, out, _ = run(
            capsys, "simulate", "--lambda", "1", "--production", "0", "--t", "1",
            "--paths", "1", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["ci99_halfwidth"] == "inf"
        assert doc["n_paths"] == 1
        assert math.isfinite(doc["value"])

    def test_tiny_path_count_warns_on_diagnostic_stream(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--lambda", "1", "--production", "2", "--t", "2",
            "--paths", "50", "--seed", "1",
        )
        assert code == 0
        assert "ci-unreliable" in err
        assert "ci-unreliable" not in out

    def test_path_count_past_the_ceiling_is_refused_at_once(self, capsys):
        start = time.monotonic()
        code, out, err = run(
            capsys, "simulate", "--lambda", "1", "--production", "1", "--t", "1",
            "--paths", "1000000000000",
        )
        assert time.monotonic() - start < 0.5
        assert (code, out) == (1, "")
        assert err == "backlog-lab: domain error: 1000000000000 paths exceed the 1e8-path ceiling\n"


class TestIdentities:
    def test_single_family(self, capsys):
        code, out, _ = run(
            capsys, "identities", "--family", "A1", "--n-max", "30",
            "--trials", "50", "--seed", "7",
        )
        assert code == 0
        assert "all passed" in out

    def test_all_families(self, capsys):
        code, out, _ = run(
            capsys, "identities", "--family", "all", "--n-max", "10",
            "--trials", "5", "--seed", "3",
        )
        assert code == 0
        assert "all passed" in out

    def test_failed_checks_are_listed_and_exit_one(self, capsys, monkeypatch):
        def unequal(n, table):
            return EqualityReport("A1", n, Fraction(1), Fraction(2), False)

        monkeypatch.setattr(cli, "check_identity_a1", unequal)
        code, out, _ = run(
            capsys, "identities", "--family", "A1", "--n-max", "5", "--trials", "3", "--seed", "1",
        )
        assert code == 1
        lines = out.splitlines()
        assert len(lines) == 4
        assert all(line.endswith(": 1 != 2") for line in lines[:3])
        assert lines[3] == "FAILED: 3 of the exact checks"

    def test_n_max_above_the_ceiling_is_refused_at_once(self, capsys):
        start = time.monotonic()
        code, out, err = run(
            capsys, "identities", "--family", "A1", "--n-max", "1000000", "--trials", "1",
        )
        assert time.monotonic() - start < 1.0
        assert code == 1
        assert out == ""
        assert "ceiling of 1000" in err

    def test_trials_above_the_ceiling_are_refused_at_once(self, capsys):
        start = time.monotonic()
        code, out, err = run(
            capsys, "identities", "--family", "A1", "--n-max", "1", "--trials", "1000000000",
        )
        assert time.monotonic() - start < 1.0
        assert code == 1
        assert out == ""
        assert err == "backlog-lab: domain error: --trials 1000000000 exceeds the ceiling of 1000\n"

    def test_zero_trials_are_a_domain_error(self, capsys):
        code, out, err = run(capsys, "identities", "--trials", "0")
        assert code == 1
        assert out == ""
        assert err == "backlog-lab: domain error: --trials must be at least 1, got 0\n"


class TestAdjudicate:
    def test_small_grid_csv(self, capsys):
        code, out, err = run(
            capsys, "adjudicate", "--lambda", "1", "--production", "2",
            "--t-list", "0.5,1",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][0] == "lambda"
        assert len(rows) == 1 + 2 * 6
        # Verdict summary belongs to the diagnostic stream only.
        assert "Matches" in err
        assert "Matches" not in out

    def test_candidate_filter(self, capsys):
        code, out, _ = run(
            capsys, "adjudicate", "--lambda", "1", "--production", "2",
            "--t-list", "1", "--candidate", "compact",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["candidate"] for r in rows] == ["compact"]

    def test_out_file_keeps_stdout_clean(self, capsys, tmp_path):
        target = tmp_path / "report.csv"
        code, out, err = run(
            capsys, "adjudicate", "--lambda", "1", "--production", "1",
            "--t-list", "0.5,1", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        text = target.read_text()
        assert text.startswith("lambda,")
        assert "Fails" in err

    def test_out_path_that_cannot_be_opened_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.csv"
        code, out, err = run(
            capsys, "adjudicate", "--lambda", "1", "--production", "1",
            "--t-list", "1", "--out", str(target),
        )
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("backlog-lab: error: ")
        assert "Traceback" not in err
        assert not target.parent.exists()

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "adjudicate", "--lambda", "1", "--production", "1",
            "--t-list", "1", "--format", "json", "--candidate", "compact",
        )
        assert code == 0
        data = json.loads(out)
        assert len(data) == 1
        assert data[0]["production"] == 1

    def test_candidate_that_is_not_a_number_is_accuracy_error(self, capsys):
        # It used to read "compact: Fails, max abs dev nan".
        code, out, err = run(
            capsys, "adjudicate", "--lambda", "3.06e-300", "--production", "156197",
            "--t-list", "1.49e-162",
        )
        assert code == 2
        assert out == ""
        assert "not a number" in err

    def test_infinite_match_tolerance_is_domain_error(self, capsys):
        # It used to print "original: Matches, max abs dev 2.35".
        code, out, err = run(
            capsys, "adjudicate", "--lambda", "1", "--production", "1", "--t-list", "1",
            "--match-tol", "inf", "--candidate", "original",
        )
        assert code == 1
        assert out == ""
        assert err == "backlog-lab: domain error: match tolerance must be positive and finite, got inf\n"

    def test_bad_tolerance_split(self, capsys):
        code, out, err = run(
            capsys, "adjudicate", "--lambda", "1", "--production", "1",
            "--t-list", "1", "--match-tol", "1e-9", "--oracle-tol", "1e-9",
        )
        assert code == 1
        assert out == ""

    def test_tiny_rate_is_certified(self, capsys):
        code, out, err = run(
            capsys, "adjudicate", "--lambda", "1e-300", "--production", "1",
            "--t-list", "1,1e120", "--candidate", "compact",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 2
        for row in rows:
            assert "oracle-failure" not in row["flags"]
            assert 0.0 < float(row["oracle_bound"]) <= 1e-9

    @pytest.mark.parametrize("axis", [
        ("--lambda", "1,1", "--production", "2", "--t-list", "1"),
        ("--lambda", "1", "--production", "2,2", "--t-list", "1"),
        ("--lambda", "1", "--production", "2", "--t-list", "1,1"),
    ])
    def test_repeated_axis_value_is_domain_error(self, axis, capsys):
        code, out, err = run(capsys, "adjudicate", *axis, "--candidate", "compact")
        assert code == 1
        assert out == ""
        assert "domain error" in err

    def test_negative_zero_time_prints_as_zero(self, capsys):
        code, out, _ = run(
            capsys, "adjudicate", "--lambda", "1", "--production", "1",
            "--t-list=-0,1", "--candidate", "compact",
        )
        assert code == 0
        assert out.splitlines()[1].startswith("1,1,0,compact,")

    def test_no_axis_flags_adjudicate_the_default_grid(self, capsys):
        code, out, _ = run(capsys, "adjudicate")
        assert code == 0
        assert out == render_report(adjudicate(default_grid(), inversion=InversionConfig()))


class TestFramework:
    def test_no_arguments_is_usage_error(self, capsys):
        code, _, _ = run(capsys)
        assert code == 3

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 3

    HELP_FLAGS = {
        "eval": ("--lambda", "--production", "--t"),
        "cumulative": ("--lambda", "--production", "--t", "--t-list", "--candidate", "--format"),
        "invert": ("--lambda", "--production", "--t", "--image", "--gs-order"),
        "simulate": ("--lambda", "--production", "--t", "--paths", "--seed", "--format"),
        "identities": ("--family", "--n-max", "--trials", "--seed"),
        "adjudicate": (
            "--lambda", "--production", "--t-list", "--candidate",
            "--match-tol", "--oracle-tol", "--gs-order", "--format", "--out",
        ),
    }

    @pytest.mark.parametrize("sub", SUBCOMMANDS)
    def test_help_names_every_flag_with_units(self, sub, capsys):
        code = main([sub, "--help"])
        assert code == 0
        out = capsys.readouterr().out
        flat = " ".join(out.split())
        for flag in self.HELP_FLAGS[sub]:
            assert flag in flat, (sub, flag)
        if "--lambda" in self.HELP_FLAGS[sub]:
            assert "per unit time" in flat
            assert "units" in flat


def _extreme_argv(sub, lam, t):
    model = ("--lambda", lam, "--production", "1")
    if sub == "identities":
        return (sub, "--trials", "2")
    if sub == "simulate":
        return (sub, *model, "--t", t, "--paths", "100")
    if sub == "adjudicate":
        times = f"{t},1" if float(t) < 1.0 else f"1,{t}"
        return (sub, *model, "--t-list", times, "--candidate", "compact")
    return (sub, *model, "--t", t)


class TestProductionCeiling:
    # Past 10**154, P(P+1) is no finite double; these ended in an
    # OverflowError traceback.
    @pytest.mark.parametrize("argv", [
        ("eval", "--lambda", "1", "--production", str(10**400), "--t", "1"),
        ("cumulative", "--lambda", "1", "--production", str(10**160), "--t", "1",
         "--candidate", "compact"),
        ("adjudicate", "--lambda", "1", "--production", str(10**160), "--t-list", "1",
         "--candidate", "compact"),
    ])
    def test_above_the_ceiling_is_domain_error(self, argv, capsys):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("backlog-lab: domain error:") and "at most" in err

    def test_at_the_ceiling_every_command_gives_values(self, capsys):
        model = ("--lambda", "1", "--production", str(10**154))
        code, out, _ = run(capsys, "eval", *model, "--t", "1")
        assert code == 0
        assert math.isfinite(float(out))
        code, out, _ = run(capsys, "cumulative", *model, "--t", "1", "--candidate", "all")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 6
        assert not any(math.isnan(float(row["value"])) for row in rows)
        code, out, _ = run(capsys, "adjudicate", *model, "--t-list", "1")
        assert code == 0


class TestExtremeArguments:
    @pytest.mark.parametrize("t", ["1e-300", "1e120", "1e300"])
    @pytest.mark.parametrize("lam", ["1e-300", "1", "1e300"])
    @pytest.mark.parametrize("sub", SUBCOMMANDS)
    def test_every_subcommand_exits_with_a_documented_code(self, sub, lam, t, capsys):
        code, _, _ = run(capsys, *_extreme_argv(sub, lam, t))
        assert code in (0, 1, 2, 3)

    def test_inversion_whose_image_overflows_is_accuracy_error(self, capsys):
        code, out, err = run(capsys, "invert", "--lambda", "1", "--production", "1", "--t", "1e300")
        assert code == 2
        assert out == ""
        assert "not finite" in err

    def test_adjudication_skips_an_inversion_whose_image_overflows(self, capsys):
        code, out, _ = run(
            capsys, "adjudicate", "--lambda", "1", "--production", "1",
            "--t-list", "1,1e120", "--candidate", "compact",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert "gs-skipped" not in rows[0]["flags"]
        assert "gs-skipped" in rows[1]["flags"].split(";")
