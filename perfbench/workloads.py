"""The four benchmark workloads: seeded inputs, one operation, and its check.

A workload turns the seed into one *round* of operations.  The benchmark
repeats that round in a closed loop with one client (the next operation
starts when the previous one returns), a number of times set by the run's
length and the workload's nominal round time, so every round runs the same
inputs and a run's figures, failures included, are exact for a seed.  Inputs are stratified: each round covers every stratum
of the workload's input space, and the seed only jitters values inside a
stratum, so two seeds put the same kind of load on the program.

An operation is a plain tuple whose first item names its kind.  `run`
returns the program's output, `check` returns None or the reason the output
is wrong, and `known_defect` marks failures on a defect listed in
perfbench/README.md; they still count as failed.

backlog_lab must be importable before this module is imported.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

from backlog_lab import adjudicator, cli, closed_forms, distributions, oracles
from backlog_lab.adjudicator import SweepGrid
from backlog_lab.distributions import ModelParams
from backlog_lab.laplace import InversionConfig

import references as ref

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

_EPS = 2.220446049250313e-16


def _log_point(lo: float, hi: float, u: float) -> float:
    return round(lo * (hi / lo) ** u, 6)


def _jitter(rng: random.Random, anchor: float, spread: float) -> float:
    return anchor * math.exp(rng.uniform(-spread, spread))


def _fmt(op: tuple) -> str:
    return op[0] + "(" + ", ".join(f"{v:.6g}" if isinstance(v, float) else str(v) for v in op[1:]) + ")"


class Workload:
    name = ""
    # op_tail_s is this percentile of op latency (nearest rank).  It is
    # fixed per workload, and run.py runs enough whole rounds to leave at
    # least ten samples beyond it, so every run reports the same percentile.
    TAIL_PERCENTILE = 79
    # Nominal wall seconds of one round, kernels included, on a 2-CPU
    # x86-64 Xeon virtual machine: a run makes --seconds / ROUND_S rounds.
    ROUND_S: float
    # peak_rss_mb reads the children's peak when operations are subprocesses.
    ops_in_children = False
    # The kernel that scales op latency to reference seconds (run.py):
    # "loop" (pure Python), "spawn" (a bare interpreter start) or "convolve"
    # (numpy), whichever is of the ops' own kind.
    kernel = "loop"

    def make_round(self, seed: int) -> list[tuple]:
        raise NotImplementedError

    def order(self, ops: list[tuple], seed: int, round_index: int) -> list[tuple]:
        return ops

    def run(self, op: tuple):
        raise NotImplementedError

    def run_traced(self, op: tuple):
        """The operation as the traced run executes it (in-process)."""
        return self.run(op)

    def fingerprint(self, output) -> str:
        """Text that must repeat exactly every time the same operation runs."""
        return repr(output)

    def check(self, op: tuple, output) -> str | None:
        raise NotImplementedError

    def known_defect(self, op: tuple, reason: str) -> bool:
        """True when `reason` is a failure on a defect listed in perfbench/README.md."""
        return False

    def describe(self, op: tuple) -> str:
        return _fmt(op)


class GridSweep(Workload):
    """One op: adjudicate() on a seeded 3 x 6 x 6 grid, rendered to csv and json."""

    name = "grid-sweep"
    TAIL_PERCENTILE = 72
    ROUND_S = 4.7
    GRIDS_PER_ROUND = 12
    # One production level from each stratum of 0..12.
    P_STRATA = ((0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11, 12))
    MATCHING = frozenset({"original-negexp", "compact"})
    # Criterion 7 measures the inversion at this order, as does the
    # documented adjudicate invocation.
    INVERSION = InversionConfig(order=18)
    # Known defects (see known_defect), each excused only up to its recorded size.
    GS_MISS = "Gaver-Stehfest misses the criterion-7 scale"
    GS_MISS_MIN_P = 11
    GS_MISS_MAX_FACTOR = 2.0
    BOUND_MISS = "quadrature oracle error exceeds its reported bound"
    BOUND_MISS_MAX_TOLS = 10.0  # error at most this many oracle_tol

    def make_round(self, seed):
        # Each axis range splits log-evenly into strata (3 for lambda, 5 for
        # t), and each stratum into one slot per grid; grid g draws its
        # value inside slot g of every stratum, and takes P stratum values
        # in turn.  A round then covers the ranges the same way for every
        # seed, from the cheapest grid first (the warm-up op) to the
        # costliest last.  P is not drawn from the seed: with it, the middle
        # grids' series work moved by 13% between seeds.
        rng = random.Random(seed)
        n = self.GRIDS_PER_ROUND
        ops = []
        for g in range(n):
            lams = tuple(_log_point(0.5, 8.0, (i + (g + rng.random()) / n) / 3) for i in range(3))
            times = (0.0,) + tuple(_log_point(0.25, 20.0, (i + (g + rng.random()) / n) / 5) for i in range(5))
            productions = tuple(s[g % len(s)] for s in self.P_STRATA)
            ops.append(("grid", lams, productions, times))
        return ops

    def run(self, op):
        report = adjudicator.adjudicate(SweepGrid(*op[1:]), inversion=self.INVERSION)
        return report, adjudicator.render_report(report, "csv"), adjudicator.render_report(report, "json")

    def fingerprint(self, output):
        return output[1] + output[2]

    def check(self, op, output):
        report, csv_text, json_text = output
        _, lams, productions, times = op
        rows = report.rows
        if len(rows) != len(lams) * len(productions) * len(times) * 6:
            return f"{len(rows)} rows"
        truths = [ref.cumulative_backlog(r.lam, r.production, r.t) for r in rows]
        for r, truth in zip(rows, truths):
            where = f"lam={r.lam} P={r.production} t={r.t} {r.candidate.value}"
            if r.oracle_value is None or "oracle-failure" in r.flags:
                return f"oracle failed at {where}"
            if not r.oracle_bound < report.oracle_tol:
                return f"oracle bound {r.oracle_bound:.3g} not below {report.oracle_tol:g} at {where}"
            # The adjudicator keeps match_tol above 10 x oracle_tol so that
            # oracle error never decides a verdict; that margin is the limit.
            if not abs(r.oracle_value - truth) < report.match_tol / 10.0:
                return f"oracle off by {abs(r.oracle_value - truth):.3g} at {where}"
            if r.candidate.value == "compact":
                for other in (r.oracle_value, truth):
                    if not abs(r.candidate_value - other) < report.match_tol:
                        return f"compact off by {abs(r.candidate_value - other):.3g} at {where}"
        for s in report.summary:
            want = "Matches" if s.candidate.value in self.MATCHING else "Fails"
            if s.verdict != want:
                return f"verdict {s.candidate.value}: {s.verdict}, expected {want}"
        rendering = _check_rendering(rows, csv_text, json_text)
        if rendering is not None:
            return rendering
        # Known defects last, so that they cannot mask another failure.
        for r, truth in zip(rows, truths):
            err = abs(r.oracle_value - truth)
            if err > r.oracle_bound + 4 * _EPS * abs(truth):
                known = err <= self.BOUND_MISS_MAX_TOLS * report.oracle_tol
                return (f"{self.BOUND_MISS if known else 'quadrature oracle off its bound'}: off by {err:.3g},"
                        f" reports {r.oracle_bound:.3g}, at lam={r.lam} P={r.production} t={r.t}")
        for r in rows:
            scale = 1e-4 * max(1.0, r.lam * r.t * r.t / 2.0)
            if r.gs_value is not None and not abs(r.gs_value - r.oracle_value) <= scale:
                factor = abs(r.gs_value - r.oracle_value) / scale
                known = r.production >= self.GS_MISS_MIN_P and factor < self.GS_MISS_MAX_FACTOR
                return (f"{self.GS_MISS if known else 'Gaver-Stehfest off'} by {factor:.3g} x 1e-4 lam t^2/2"
                        f" at lam={r.lam} P={r.production} t={r.t}")
        return None

    def known_defect(self, op, reason):
        # check() words a failure as one of these only within the size that
        # was recorded for it, and known_defect excuses nothing else.
        # GS_MISS is ROADMAP open item 5: Gaver-Stehfest tops out near 1e-4
        # relative, and at P >= 11 it misses the criterion-7 scale by up to
        # 1.4x.  BOUND_MISS: the quadrature oracle's reported bound rests on
        # adaptive Simpson's error estimate, which is not a certificate (seen
        # up to 5.1e-9 off with a bound of 6.1e-10, at lam=6.28 P=4 t=1.08 on
        # seed 14; oracle_tol is 1e-9); the ROADMAP's north star
        # records that certified bounds do not hold everywhere, and item 3
        # takes this oracle off the adjudication path.
        return reason.startswith((self.GS_MISS, self.BOUND_MISS))


def _check_rendering(rows, csv_text: str, json_text: str) -> str | None:
    """Both renderings carry every row, and their values parse back exactly."""
    table = list(csv.DictReader(io.StringIO(csv_text)))
    try:
        records = json.loads(json_text)
    except json.JSONDecodeError as exc:
        return f"json rendering does not parse: {exc}"
    if len(table) != len(rows) or len(records) != len(rows):
        return f"rendered {len(table)} csv and {len(records)} json rows for {len(rows)}"

    def same(cell, value):
        # Non-finite values are quoted strings in json.
        parsed = float(cell)
        return parsed == value or (math.isnan(parsed) and math.isnan(value))

    for r, line, rec in zip(rows, table, records):
        if not (
            same(line["candidate_value"], r.candidate_value)
            and same(rec["candidate_value"], r.candidate_value)
            and same(line["oracle_value"], r.oracle_value)
            and same(rec["oracle_value"], r.oracle_value)
            and line["candidate"] == rec["candidate"] == r.candidate.value
        ):
            return f"rendered row differs from report at lam={r.lam} P={r.production} t={r.t}"
    return None


# Copy of DOCUMENTED_INVOCATIONS in tests/test_acceptance.py; a self-test
# keeps the two equal.
DOCUMENTED_INVOCATIONS = [
    ["eval", "--lambda", "2", "--production", "3", "--t", "1.5"],
    ["cumulative", "--lambda", "1", "--production", "2", "--t-list", "0.5,1,2",
     "--candidate", "all", "--format", "csv"],
    ["invert", "--lambda", "1", "--production", "1", "--t", "1",
     "--image", "cumulative", "--gs-order", "14"],
    ["simulate", "--lambda", "1", "--production", "2", "--t", "2",
     "--paths", "20000", "--seed", "42", "--format", "csv"],
    ["identities", "--family", "all", "--n-max", "30", "--trials", "50", "--seed", "7"],
    ["adjudicate", "--lambda", "0.5,1", "--production", "1,2", "--t-list", "0.5,1,2",
     "--gs-order", "18", "--format", "csv"],
]


def child_env() -> dict[str, str]:
    """Environment for child interpreters: this checkout's src first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class CliDocumented(Workload):
    """One op: a fresh `python -m backlog_lab.cli` running one documented invocation."""

    name = "cli-documented"
    TAIL_PERCENTILE = 75
    ROUND_S = 1.55
    ops_in_children = True
    # Process start-up, not the Python loop, follows a slowdown of these ops.
    kernel = "spawn"

    def __init__(self):
        self._env = child_env()

    def make_round(self, seed):
        return [("cli", i) for i in range(len(DOCUMENTED_INVOCATIONS))]

    def order(self, ops, seed, round_index):
        shuffled = list(ops)
        random.Random(f"{seed}/{round_index}").shuffle(shuffled)
        return shuffled

    def run(self, op):
        done = subprocess.run(
            [sys.executable, "-m", "backlog_lab.cli", *DOCUMENTED_INVOCATIONS[op[1]]],
            capture_output=True, env=self._env, cwd=ROOT, timeout=120,
        )
        return done.returncode, done.stdout

    def run_traced(self, op):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(DOCUMENTED_INVOCATIONS[op[1]]))
        return code, out.getvalue().encode()

    def describe(self, op):
        return " ".join(DOCUMENTED_INVOCATIONS[op[1]])

    def check(self, op, output):
        code, stdout = output
        name = DOCUMENTED_INVOCATIONS[op[1]][0]
        if code != 0:
            return f"exit code {code}"
        if name in ref.README_STDOUT:
            return None if stdout == ref.README_STDOUT[name] else f"stdout {stdout[:80]!r} differs from README"
        text = stdout.decode("utf-8", errors="replace")
        if not text.endswith("\n"):
            return "stdout does not end with a newline"
        if name == "simulate":
            return self._check_simulate(text)
        if name == "cumulative":
            lines = text.splitlines()
            if tuple(lines[:3]) != ref.README_CUMULATIVE_HEAD or len(lines) != 1 + 3 * 6:
                return "cumulative table differs from README"
            for row in csv.DictReader(io.StringIO(text)):
                if row["candidate"] in GridSweep.MATCHING:
                    truth = ref.cumulative_backlog(float(row["lambda"]), int(row["production"]), float(row["t"]))
                    if abs(float(row["value"]) - truth) > 1e-12 * max(1.0, abs(truth)):
                        return f"cumulative {row['candidate']} at t={row['t']} off the reference"
            return None
        rows = list(csv.DictReader(io.StringIO(text)))
        if len(rows) != 2 * 2 * 3 * 6:
            return f"adjudicate printed {len(rows)} rows"
        for row in rows:
            lam, production, t = float(row["lambda"]), int(row["production"]), float(row["t"])
            truth = ref.cumulative_backlog(lam, production, t)
            oracle, bound = float(row["oracle_value"]), float(row["oracle_bound"])
            if abs(oracle - truth) > bound + 4 * _EPS * abs(truth) or "oracle-failure" in row["flags"]:
                return f"adjudicate oracle off the reference at lam={lam} P={production} t={t}"
            if row["candidate"] in GridSweep.MATCHING and not abs(float(row["candidate_value"]) - truth) < 1e-6:
                return f"adjudicate {row['candidate']} off the reference at lam={lam} P={production} t={t}"
        return None

    @staticmethod
    def _check_simulate(text):
        # The README's half-width ends ...259; numpy 2.4 on x86-64 prints
        # ...261, two units in the 17th digit, so the half-width is held
        # to 1e-15 relative and the value and path count exactly.
        header, row = ref.README_SIMULATE
        lines = text.splitlines()
        if len(lines) != 2 or lines[0] != header:
            return f"simulate printed {text[:80]!r}"
        value, half_width, paths = lines[1].split(",")
        want_value, want_half_width, want_paths = row.split(",")
        if value != want_value or paths != want_paths:
            return f"simulate printed {lines[1]!r}, README {row!r}"
        if abs(float(half_width) - float(want_half_width)) > 1e-15 * float(want_half_width):
            return f"simulate half-width {half_width}, README {want_half_width}"
        return None


class Sampling(Workload):
    """One op: monte_carlo_cumulative at 1e5 paths, or one nfold_exponential_convolution."""

    name = "sampling"
    kernel = "convolve"
    ROUND_S = 3.6
    PATHS = 100_000
    MC_ANCHORS = (2.0, 8.0, 32.0, 128.0, 500.0)
    # A seeded Monte Carlo value must sit within 1.6 x its 99% half-width
    # (about 4.1 standard errors) of the reference.
    MC_WIDTHS = 1.6
    # Observed |error| / (lam (lam h)^2) stays below 0.08 for n <= 8 and
    # lam t <= 20; the check allows 0.5.
    CONV_H2 = 0.5

    def make_round(self, seed):
        # Monte Carlo cost and memory follow lam t and P, so both stay near
        # their anchors; each convolution gets about (n - 1) m^2 = 1e8
        # multiply-adds, so the seven form one cost class holding the median.
        rng = random.Random(seed)
        ops = []
        for anchor in self.MC_ANCHORS:
            x = _jitter(rng, anchor, 0.02)
            lam = round(math.exp(rng.uniform(math.log(0.5), math.log(4.0))), 6)
            t = round(x / lam, 6)
            production = int(rng.uniform(0.45, 0.55) * lam * t)
            ops.append(("mc", lam, production, t, self.PATHS, rng.getrandbits(63)))
        for n in range(2, 9):
            lam = round(math.exp(rng.uniform(math.log(0.5), math.log(4.0))), 6)
            t = round(math.exp(rng.uniform(0.0, math.log(20.0))) / lam, 6)
            ops.append(("conv", lam, n, t, t / round(1e4 / math.sqrt(n - 1))))
        return ops

    def run(self, op):
        if op[0] == "mc":
            _, lam, production, t, paths, seed = op
            return oracles.monte_carlo_cumulative(
                ModelParams(lam, production), t, oracles.McConfig(n_paths=paths, seed=seed)
            )
        _, lam, n, t, step = op
        return oracles.nfold_exponential_convolution(lam, n, t, step)

    def check(self, op, output):
        if op[0] == "mc":
            _, lam, production, t, paths, _ = op
            truth = ref.cumulative_backlog(lam, production, t)
            if output.n_effective != paths:
                return f"{output.n_effective} paths, asked for {paths}"
            if not abs(output.value - truth) <= self.MC_WIDTHS * output.abs_error_bound:
                return (f"Monte Carlo {output.value:.6g} +- {output.abs_error_bound:.3g}"
                        f" misses the reference {truth:.6g}")
            return None
        _, lam, n, t, step = op
        h = t / round(t / step)
        truth = ref.erlang_density(lam, n, t)
        tol = self.CONV_H2 * lam * (lam * h) ** 2 + 1e-12 * lam
        if not abs(output - truth) <= tol:
            return f"convolution {output:.10g} vs Erlang density {truth:.10g}, allowed {tol:.3g}"
        return None


class LargeX(Workload):
    """One op: one pointwise call at lam t in [1e3, 3e4], beyond the e^{-x} anchor."""

    name = "large-x"
    # A round's costliest ops come in pairs (expected_backlog and erlang_cdf
    # at one lam t and P), each pair about 1.3x or more apart from the next.
    # p93 of two rounds is the cheapest sample of the third pair and fell to
    # the fourth pair on 3 of 10 seeds (0.42 s against 0.49-0.52 s); p91 is
    # a middle sample of the fourth pair for two, three or four rounds.
    TAIL_PERCENTILE = 91
    ROUND_S = 11.0
    X_ANCHORS = (1e3, 3e3, 1e4, 3e4)
    P_SHARES = (0.0, None, 0.5, 1.0, 2.0)  # None is P = 1
    CDF_MAX_STAGES = 20_000
    KINDS = ("series", "closed", "cdf", "term")
    # distributions switches to the modal anchor above this lam t.
    ANCHOR_SWITCH = 700.0
    # Known defects of the series oracle past the switch (see known_defect);
    # recorded values run from 0.50 to 0.52 of the reference.
    SHORT = "series oracle skips mass past the anchor switch"
    SHORT_RATIO = (0.4, 0.6)
    CERT_MISS = "series oracle certificate misses an anchor error"

    def make_round(self, seed):
        rng = random.Random(seed)
        ops = []
        for anchor in self.X_ANCHORS:
            x = _jitter(rng, anchor, 0.02)
            t = round(math.exp(rng.uniform(0.0, math.log(10.0))), 6)
            lam = round(x / t, 6)
            x = lam * t
            for share in self.P_SHARES:
                production = 1 if share is None else int(round(share * x))
                ops.append(("series", lam, t, production))
                ops.append(("closed", lam, t, production))
                ops.append(("cdf", lam, max(1, min(production, self.CDF_MAX_STAGES)), t))
                ops.append(("term", x, production))
        return ops

    def run(self, op):
        kind = op[0]
        if kind == "series":
            return oracles.backlog_series_oracle(ModelParams(op[1], op[3]), op[2])
        if kind == "closed":
            return closed_forms.expected_backlog(ModelParams(op[1], op[3]), op[2])
        if kind == "cdf":
            return distributions.erlang_cdf(op[1], op[2], op[3])
        return distributions.poisson_term(op[1], op[2])

    def check(self, op, output):
        kind = op[0]
        if kind in ("series", "closed"):
            _, lam, t, production = op
            x = lam * t
            truth = ref.expected_backlog(x, production)
            value = output.value if kind == "series" else output
            err = abs(value - truth)
            past_switch = kind == "series" and x > self.ANCHOR_SWITCH
            if not err <= 1e-9 * max(1.0, x, production):  # NaN fails too
                low, high = self.SHORT_RATIO
                if past_switch and production <= round(x / 2) and low <= value / truth <= high:
                    return f"{self.SHORT}: {value:.17g} of the reference {truth:.17g}"
                return f"off by {err:.3g}, reference {truth:.17g}"
            if kind == "series" and not err <= output.abs_error_bound:
                return (f"{self.CERT_MISS if past_switch else 'off'} by {err:.3g} but certifies"
                        f" {output.abs_error_bound:.3g}")
            return None
        if kind == "cdf":
            _, lam, n, t = op
            truth = ref.poisson_tail(lam * t, n)
            return None if abs(output - truth) <= 1e-9 else f"off by {abs(output - truth):.3g}"
        _, x, n = op
        truth = ref.poisson_term(x, n)
        err = abs(output - truth)
        return None if err <= 1e-9 * truth + 1e-300 else f"off by {err:.3g} (relative {err / truth:.3g})"

    def known_defect(self, op, reason):
        # ROADMAP open item 1: above the anchor switch the series oracle
        # skips part of the mass at P <= lam t / 2, rounded (it returns about
        # half the reference), and elsewhere its terms carry the lgamma
        # anchor's error (within 1e-9 relative) yet it certifies about 1e-12.
        # check() words only those two failures this way; an exception, any
        # other value or an output that changes between runs is not excused.
        return reason.startswith((self.SHORT, self.CERT_MISS))


WORKLOADS = {w.name: w for w in (GridSweep(), CliDocumented(), Sampling(), LargeX())}
