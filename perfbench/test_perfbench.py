"""Self-tests for the benchmark.

    python3 -m pytest perfbench -q

Each output check must reject a planted wrong value, one seed must always
give the same inputs, and every metric name must be well formed.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import math
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import pytest  # noqa: E402

import references as ref  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from backlog_lab import adjudicator, cli  # noqa: E402
from backlog_lab.oracles import EstimateWithError  # noqa: E402
from tracer import LAYER_METRICS, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


# --- each check rejects a planted wrong value -------------------------------

SMALL_GRID = ("grid", (0.5, 1.0), (2, 3), (0.0, 0.5, 2.0))


def test_grid_check_rejects_compact_offset_by_the_p_p1_over_lam_term():
    workload = W.WORKLOADS["grid-sweep"]
    report, csv_text, json_text = workload.run(SMALL_GRID)
    assert workload.check(SMALL_GRID, (report, csv_text, json_text)) is None
    rows = list(report.rows)
    i = next(k for k, r in enumerate(rows) if r.candidate.value == "compact" and r.t > 0)
    r = rows[i]
    rows[i] = dataclasses.replace(r, candidate_value=r.candidate_value + r.production * (r.production + 1) / r.lam)
    planted = dataclasses.replace(report, rows=tuple(rows))
    reason = workload.check(SMALL_GRID, (planted, csv_text, json_text))
    assert reason is not None and "compact" in reason
    assert not workload.known_defect(SMALL_GRID, reason)


def test_grid_check_rejects_a_wrong_verdict_and_a_damaged_rendering():
    workload = W.WORKLOADS["grid-sweep"]
    report, csv_text, json_text = workload.run(SMALL_GRID)
    summary = tuple(dataclasses.replace(s, verdict="Matches") for s in report.summary)
    assert "verdict" in workload.check(SMALL_GRID, (dataclasses.replace(report, summary=summary), csv_text, json_text))
    assert workload.check(SMALL_GRID, (report, csv_text, json_text[:-3])) is not None
    assert workload.check(SMALL_GRID, (report, csv_text.replace("compact,", "compakt,", 1), json_text)) is not None


def _flip_digit(text: str, pos: int) -> str:
    assert text[pos].isdigit()
    return text[:pos] + ("7" if text[pos] != "7" else "3") + text[pos + 1:]


def _compact_value_start(text: str) -> int:
    """Index of the first digit of the first compact row's candidate value."""
    row = text.index(",compact,") + len(",compact,")
    return next(i for i in range(row, len(text)) if text[i].isdigit())


@pytest.mark.parametrize("index", range(len(W.DOCUMENTED_INVOCATIONS)),
                         ids=[a[0] for a in W.DOCUMENTED_INVOCATIONS])
def test_cli_check_rejects_a_flipped_byte(index):
    workload = W.WORKLOADS["cli-documented"]
    op = ("cli", index)
    code, stdout = workload.run_traced(op)
    assert workload.check(op, (code, stdout)) is None
    text = stdout.decode()
    name = W.DOCUMENTED_INVOCATIONS[index][0]
    if name == "identities":
        flipped = text.replace("passed", "passes")
    elif name in ("cumulative", "adjudicate"):
        # Rows the README does not print are held to the reference by value,
        # so the flip goes to a leading digit.
        flipped = _flip_digit(text, _compact_value_start(text))
    else:
        flipped = _flip_digit(text, len(text.rstrip("\n")) - 3)
    assert workload.check(op, (code, flipped.encode())) is not None
    assert workload.check(op, (1, stdout)) is not None


def test_repeated_op_must_repeat_its_output_exactly():
    workload = W.WORKLOADS["cli-documented"]
    op = ("cli", 0)
    good = (0, ref.README_STDOUT["eval"])
    bad = (0, b"0.67212542296616319\n")
    samples = [(op, 0.1, run._digest(workload, out)) for out in (good, good, bad)]
    failed, unexpected, _ = run._verify(workload, samples, {op: good})
    assert (failed, unexpected) == (1, 1)


def test_sampling_checks_reject_planted_values():
    workload = W.WORKLOADS["sampling"]
    mc = ("mc", 1.0, 2, 2.0, 100_000, 42)
    truth = ref.cumulative_backlog(1.0, 2, 2.0)
    assert workload.check(mc, EstimateWithError(truth + 0.9 * 0.01, 0.01, 100_000)) is None
    assert workload.check(mc, EstimateWithError(truth + 2.0 * 0.01, 0.01, 100_000)) is not None
    assert workload.check(mc, EstimateWithError(truth, 0.01, 99_999)) is not None
    conv = ("conv", 1.3, 5, 6.0, 6.0 / 8000)
    exact = ref.erlang_density(1.3, 5, 6.0)
    assert workload.check(conv, workload.run(conv)) is None
    assert workload.check(conv, ref.erlang_density(1.3, 4, 6.0)) is not None
    assert workload.check(conv, exact * (1 + 1e-4)) is not None


def test_large_x_checks_reject_planted_values():
    workload = W.WORKLOADS["large-x"]
    closed = ("closed", 100.0, 10.0, 500)
    truth = ref.expected_backlog(1000.0, 500)
    assert workload.check(closed, truth) is None
    assert workload.check(closed, truth * (1 + 1e-8)) is not None
    series = ("series", 100.0, 10.0, 500)
    assert workload.check(series, EstimateWithError(truth, 1e-12, 1)) is None
    assert workload.check(series, EstimateWithError(truth + 1e-10, 1e-12, 1)) is not None
    cdf = ("cdf", 100.0, 500, 10.0)
    assert workload.check(cdf, ref.poisson_tail(1000.0, 500)) is None
    assert workload.check(cdf, ref.poisson_tail(1000.0, 500) + 2e-9) is not None
    term = ("term", 1000.0, 990)
    assert workload.check(term, ref.poisson_term(1000.0, 990)) is None
    assert workload.check(term, ref.poisson_term(1000.0, 990) * (1 + 1e-8)) is not None


def _series_reason(op, value, bound=1e-12):
    workload = W.WORKLOADS["large-x"]
    return workload.check(op, EstimateWithError(value, bound, 1))


def test_large_x_excuses_only_the_recorded_series_defects():
    workload = W.WORKLOADS["large-x"]
    x, production = 1000.0, 400
    op = ("series", 100.0, 10.0, production)
    truth = ref.expected_backlog(x, production)
    # Recorded: about half the reference at P <= lam t / 2, and an error
    # within 1e-9 relative that the certificate does not cover.
    for value in (0.51 * truth, truth + 1e-10):
        reason = _series_reason(op, value)
        assert reason is not None and workload.known_defect(op, reason), reason
    # Not recorded: any other value, the same values below the anchor
    # switch or above lam t / 2, and every exception or repeat mismatch.
    high = ("series", 100.0, 10.0, 1000)
    low = ("series", 10.0, 10.0, 40)
    for planted, value in ((op, 0.2 * truth), (op, 0.9 * truth), (op, float("nan")), (op, 2.0 * truth),
                           (high, 0.5 * ref.expected_backlog(x, 1000)),
                           (low, 0.5 * ref.expected_backlog(100.0, 40)),
                           (low, ref.expected_backlog(100.0, 40) + 1e-10)):
        reason = _series_reason(planted, value)
        assert reason is not None and not workload.known_defect(planted, reason), (planted, value)
    assert not workload.known_defect(op, "raised ValueError()")
    assert not workload.known_defect(op, "output differs from the op's first run")
    closed = ("closed", 100.0, 10.0, production)
    assert not workload.known_defect(closed, workload.check(closed, 0.51 * truth))


def test_a_raising_large_x_series_op_makes_the_run_incorrect():
    workload = W.WORKLOADS["large-x"]
    op = ("series", 100.0, 10.0, 0)
    samples = [(op, 0.1, ZeroDivisionError("planted"))]
    failed, unexpected, reasons = run._verify(workload, samples, {})
    assert (failed, unexpected) == (1, 1)
    assert not reasons[workload.describe(op)].startswith("known defect")


def _with_gs(report, production, factor):
    """The report with one row's Gaver-Stehfest value `factor` criterion-7 scales off the oracle."""
    rows = list(report.rows)
    i = next(k for k, r in enumerate(rows) if r.production == production and r.t > 0 and r.gs_value is not None)
    r = rows[i]
    scale = 1e-4 * max(1.0, r.lam * r.t * r.t / 2.0)
    rows[i] = dataclasses.replace(r, gs_value=r.oracle_value + factor * scale)
    return dataclasses.replace(report, rows=tuple(rows))


def test_grid_excuses_an_oracle_bound_miss_only_at_its_recorded_size():
    workload = W.WORKLOADS["grid-sweep"]
    op = ("grid", (1.0,), (3,), (0.0, 4.0))
    report = workload.run(op)[0]
    for extra, known in ((5e-9, True), (5e-8, False)):
        rows = tuple(dataclasses.replace(r, oracle_value=r.oracle_value + extra) if r.t > 0 else r
                     for r in report.rows)
        planted = dataclasses.replace(report, rows=rows)
        output = (planted, adjudicator.render_report(planted, "csv"), adjudicator.render_report(planted, "json"))
        reason = workload.check(op, output)
        assert reason is not None and workload.known_defect(op, reason) == known, reason


def test_grid_excuses_a_gaver_stehfest_miss_only_at_its_recorded_size():
    workload = W.WORKLOADS["grid-sweep"]
    op = ("grid", (1.0,), (3, 11), (0.0, 4.0))
    report, csv_text, json_text = workload.run(op)
    assert workload.check(op, (report, csv_text, json_text)) is None
    for production, factor, known in ((11, 1.5, True), (11, 10.0, False), (3, 1.5, False)):
        reason = workload.check(op, (_with_gs(report, production, factor), csv_text, json_text))
        assert reason is not None and workload.known_defect(op, reason) == known, reason


def test_references_agree_with_the_documented_values():
    # eval --lambda 2 --production 3 --t 1.5 is E[(N - 3)^+] at x = 3.
    assert ref.expected_backlog(3.0, 3) == float(ref.README_STDOUT["eval"])
    # cumulative --lambda 1 --production 2, original-negexp at t = 0.5.
    assert math.isclose(ref.cumulative_backlog(1.0, 2, 0.5), 0.0021426910057833481, rel_tol=1e-12)


# --- one seed, one input ----------------------------------------------------

@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_one_seed_always_gives_the_same_inputs(name):
    workload = W.WORKLOADS[name]
    first = [workload.order(workload.make_round(7), 7, r) for r in range(3)]
    again = [workload.order(workload.make_round(7), 7, r) for r in range(3)]
    other = [workload.order(workload.make_round(8), 8, r) for r in range(3)]
    assert first == again
    assert first != other
    code = (f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]; import workloads as W; "
            f"w = W.WORKLOADS[{name!r}]; print(repr([w.order(w.make_round(7), 7, r) for r in range(3)]))")
    fresh = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert fresh.stdout.strip() == repr(first)


# --- metric names -------------------------------------------------------------

def test_metric_names_are_well_formed_and_match_the_benchmark_file():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"] + SPEC["workloads"]]
    names += [name for name, _ in LAYER_METRICS] + list(run.RESULT_LAYERS) + list(run.END_TO_END)
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.RESULT_LAYERS)
    assert sorted(m["name"] for m in SPEC["workloads"]) == sorted(W.WORKLOADS)


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_minimum_rounds_leave_ten_samples_beyond_the_tail_percentile(name):
    workload = W.WORKLOADS[name]
    ops = workload.make_round(3)
    n = run._min_rounds(workload, ops) * len(ops)
    latencies = [float(i) for i in range(1, n + 1)]
    assert n - run._tail(latencies, workload.TAIL_PERCENTILE) >= 10
    fewer = latencies[:n - len(ops)]
    assert len(fewer) - run._tail(fewer, workload.TAIL_PERCENTILE) < 10


def test_a_run_makes_the_same_ops_however_fast_the_host_is():
    # The round count comes from --seconds alone, so a run of one seed
    # attempts, and fails, the same ops on a fast host and on a slow one.
    workload = W.WORKLOADS["sampling"]
    ops = [("op", i) for i in range(3)]
    kernel = run.Kernel(lambda: 0.0, 1.0)
    runs = []
    for pause in (0.0, 0.02):
        def slow(op, pause=pause):
            time.sleep(pause)
            return op[1]
        runs.append([s[0] for s in run._loop(workload, ops, 1, run._rounds(workload, 3 * workload.ROUND_S),
                                             slow, kernel).samples])
    assert runs[0] == runs[1] == ops * 3
    assert run._rounds(workload, 0.1, minimum=4) == 4


# --- tracing --------------------------------------------------------------------

def test_traced_default_grid_reproduces_the_series_work_and_restores_the_program():
    originals = {attr: getattr(adjudicator, attr) for attr in ("adjudicate", "cumulative_quadrature_oracle")}
    tracer = Tracer()
    with tracer.installed():
        adjudicator.adjudicate(adjudicator.default_grid())
    totals = tracer.totals()
    assert totals["oracles.series.calls"] == 20_796
    assert totals["oracles.series.terms"] == 343_160
    assert totals["oracles.quadrature.calls"] == 108
    assert totals["quadrature.self_s"] < totals["quadrature.s"]
    assert {attr: getattr(adjudicator, attr) for attr in originals} == originals
    assert cli.main is getattr(sys.modules["backlog_lab.cli"], "main")


def test_documented_invocations_match_the_acceptance_suite():
    spec = importlib.util.spec_from_file_location("acceptance", ROOT / "tests" / "test_acceptance.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert W.DOCUMENTED_INVOCATIONS == module.DOCUMENTED_INVOCATIONS


# --- refusal without the program ---------------------------------------------------

def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "large-x", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
