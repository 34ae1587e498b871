"""Command-line front end.

Six subcommands expose the library: eval (pointwise expected backlog),
cumulative (one candidate or all of them), invert (Gaver-Stehfest of the
built-in images), simulate (Monte Carlo), identities (exact rational
checks), and adjudicate (the full grid comparison).  All diagnostics go to
stderr; stdout carries data only, written in one shot after the
computation finishes so a failure can never leave partial output behind.

Exit codes: 0 success, 1 domain error, 2 accuracy error, 3 usage error.
The BACKLOG_LAB_SEED environment variable supplies a default seed; an
explicit --seed always wins.
"""

from __future__ import annotations

import argparse
import os
import random
import sys

from .adjudicator import (
    SweepGrid,
    adjudicate,
    default_grid,
    render_record,
    render_report,
    render_rows,
)
from .closed_forms import CandidateFormula, cumulative_expected_backlog, expected_backlog
from .distributions import ModelParams
from .errors import AccuracyError, DomainError
from .identities import (
    _check_n,
    check_identity_a1,
    check_identity_a2,
    check_identity_a3,
    check_index_shift,
    random_table,
)
from .laplace import (
    InversionConfig,
    image_cumulative_backlog,
    image_expected_backlog,
    invert_gaver_stehfest,
)
from .oracles import McConfig, monte_carlo_cumulative

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits with code 3 on bad usage."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _u64(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}")
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def _float_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one value")
    return values


def _int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one value")
    return values


_CANDIDATE_CHOICES = tuple(c.value for c in CandidateFormula) + ("all",)


def _pick_candidates(name: str) -> tuple[CandidateFormula, ...]:
    if name == "all":
        return tuple(CandidateFormula)
    return (CandidateFormula(name),)


def _resolve_seed(explicit: int | None) -> int:
    if explicit is not None:
        return explicit
    raw = os.environ.get("BACKLOG_LAB_SEED")
    if raw is None:
        return 0
    try:
        seed = int(raw)
    except ValueError:
        raise _UsageError(f"BACKLOG_LAB_SEED must be an integer, got {raw!r}")
    if not 0 <= seed < 2**64:
        raise _UsageError("BACKLOG_LAB_SEED must fit in an unsigned 64-bit integer")
    return seed


def build_parser() -> _Parser:
    parser = _Parser(prog="backlog-lab", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_args(p):
        p.add_argument(
            "--lambda",
            dest="lam",
            type=float,
            required=True,
            help="demand rate, in arrivals per unit time",
        )
        p.add_argument(
            "--production",
            type=int,
            required=True,
            help="fixed production level, in units (non-negative integer)",
        )

    p = sub.add_parser("eval", parents=[], help="pointwise expected backlog at one time")
    add_model_args(p)
    p.add_argument("--t", type=float, required=True, help="evaluation time, in time units")

    p = sub.add_parser("cumulative", help="cumulative expected backlog of one or all candidates")
    add_model_args(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--t", type=float, help="evaluation time, in time units")
    group.add_argument(
        "--t-list",
        type=_float_list,
        help="comma-separated evaluation times, in time units",
    )
    p.add_argument(
        "--candidate",
        choices=_CANDIDATE_CHOICES,
        default="all",
        help="candidate tag to evaluate (default: all)",
    )
    p.add_argument(
        "--format",
        choices=("csv", "json"),
        default="csv",
        help="tabular output format when several values are produced",
    )

    p = sub.add_parser("invert", help="Gaver-Stehfest inversion of a built-in image")
    add_model_args(p)
    p.add_argument("--t", type=float, required=True, help="inversion time, in time units")
    p.add_argument(
        "--image",
        choices=("cumulative", "expected"),
        default="cumulative",
        help="which built-in image to invert (default: cumulative)",
    )
    p.add_argument(
        "--gs-order",
        type=int,
        default=14,
        help="even Stehfest order between 4 and 20 (default: 14)",
    )

    p = sub.add_parser("simulate", help="Monte Carlo estimate of the cumulative backlog")
    add_model_args(p)
    p.add_argument("--t", type=float, required=True, help="horizon, in time units")
    p.add_argument(
        "--paths",
        type=int,
        default=100_000,
        help="number of simulated demand paths (default: 100000)",
    )
    p.add_argument(
        "--seed",
        type=_u64,
        default=None,
        help="unsigned 64-bit master seed (default: BACKLOG_LAB_SEED or 0)",
    )
    p.add_argument(
        "--format",
        choices=("csv", "json"),
        default="csv",
        help="output format (default: csv)",
    )

    p = sub.add_parser("identities", help="exact rational checks of the summation identities")
    p.add_argument(
        "--family",
        choices=("A1", "A2", "A3", "shift", "all"),
        default="all",
        help="identity family to test (default: all)",
    )
    p.add_argument(
        "--n-max",
        type=int,
        default=30,
        help="largest upper parameter n to draw, at most 1000 (default: 30)",
    )
    p.add_argument(
        "--trials",
        type=int,
        default=50,
        help="random summand tables per family (default: 50)",
    )
    p.add_argument(
        "--seed",
        type=_u64,
        default=None,
        help="unsigned 64-bit seed for the random tables (default: BACKLOG_LAB_SEED or 0)",
    )

    p = sub.add_parser("adjudicate", help="sweep the candidates against the oracles")
    p.add_argument(
        "--lambda",
        dest="lams",
        type=_float_list,
        default=None,
        help="comma-separated demand rates, in arrivals per unit time (default grid: 0.5,1,2)",
    )
    p.add_argument(
        "--production",
        dest="productions",
        type=_int_list,
        default=None,
        help="comma-separated production levels, in units (default grid: 1..6)",
    )
    p.add_argument(
        "--t-list",
        type=_float_list,
        default=None,
        help="comma-separated ascending times, in time units (default grid: 0.25,0.5,1,2,5,10)",
    )
    p.add_argument(
        "--candidate",
        choices=_CANDIDATE_CHOICES,
        default="all",
        help="candidate tag to adjudicate (default: all)",
    )
    p.add_argument(
        "--match-tol",
        type=float,
        default=1e-6,
        help="absolute deviation below which a candidate matches (default: 1e-6)",
    )
    p.add_argument(
        "--oracle-tol",
        type=float,
        default=1e-9,
        help="absolute error bound the cumulative series oracle must certify (default: 1e-9)",
    )
    p.add_argument(
        "--gs-order",
        type=int,
        default=14,
        help="even Stehfest order between 4 and 20 (default: 14)",
    )
    p.add_argument(
        "--format",
        choices=("csv", "json"),
        default="csv",
        help="report format (default: csv)",
    )
    p.add_argument(
        "--out",
        default=None,
        help="write the report to this path instead of stdout",
    )

    return parser


def _run_eval(args) -> tuple[int, str, str]:
    params = ModelParams(args.lam, args.production)
    return 0, f"{expected_backlog(params, args.t):.17g}\n", ""


_CUMULATIVE_COLUMNS = ("lambda", "production", "t", "candidate", "value", "flags")
_SIMULATE_COLUMNS = ("value", "ci99_halfwidth", "n_paths")


def _run_cumulative(args) -> tuple[int, str, str]:
    params = ModelParams(args.lam, args.production)
    times = (args.t,) if args.t is not None else args.t_list
    candidates = _pick_candidates(args.candidate)
    if len(times) == 1 and len(candidates) == 1:
        result = cumulative_expected_backlog(params, times[0], candidates[0])
        err = ""
        if result.warnings:
            err = "warning: " + ";".join(result.warnings) + "\n"
        return 0, f"{result.value:.17g}\n", err
    rows = []
    for t in times:
        for candidate in candidates:
            result = cumulative_expected_backlog(params, t, candidate)
            rows.append(
                (params.lam, params.production, t, candidate.value, result.value,
                 ";".join(result.warnings))
            )
    return 0, render_rows(_CUMULATIVE_COLUMNS, rows, args.format), ""


def _run_invert(args) -> tuple[int, str, str]:
    params = ModelParams(args.lam, args.production)
    config = InversionConfig(order=args.gs_order)
    image = image_cumulative_backlog if args.image == "cumulative" else image_expected_backlog
    value = invert_gaver_stehfest(lambda s: image(params, s), args.t, config)
    return 0, f"{value:.17g}\n", ""


def _run_simulate(args) -> tuple[int, str, str]:
    params = ModelParams(args.lam, args.production)
    seed = _resolve_seed(args.seed)
    config = McConfig(n_paths=args.paths, seed=seed)
    est = monte_carlo_cumulative(params, args.t, config)
    err = ""
    if est.notes:
        err = "warning: " + ";".join(est.notes) + "\n"
    row = (est.value, est.abs_error_bound, est.n_effective)
    return 0, render_record(_SIMULATE_COLUMNS, row, args.format), err


def _run_identities(args) -> tuple[int, str, str]:
    _check_n(args.n_max, "--n-max", 1)
    if args.trials < 1:
        raise DomainError(f"--trials must be at least 1, got {args.trials}")
    seed = _resolve_seed(args.seed)
    rng = random.Random(seed)
    families = ("A1", "A2", "A3", "shift") if args.family == "all" else (args.family,)

    failures: list[str] = []
    diagnostics: list[str] = []
    for family in families:
        for _ in range(args.trials):
            n = rng.randint(1, args.n_max)
            if family == "shift":
                s = rng.randint(0, n)
                p = rng.randint(-3, 5)
                f = random_table(rng, n + 1)
                report = check_index_shift(s, n, p, f)
                if s + p < 0:
                    status = "holds" if report.equal else "breaks equality"
                    diagnostics.append(
                        f"shift s={s} n={n} p={p}: clipped at zero, {status} (diagnostic only)"
                    )
                    continue
                if not report.equal:
                    failures.append(
                        f"shift s={s} n={n} p={p}: {report.lhs} != {report.rhs}"
                    )
                continue
            f = random_table(rng, n + 1)
            check = {"A1": check_identity_a1, "A2": check_identity_a2, "A3": check_identity_a3}[
                family
            ]
            report = check(n, f)
            if not report.equal:
                failures.append(f"{family} n={n}: {report.lhs} != {report.rhs}")

    err = "".join(line + "\n" for line in diagnostics)
    if failures:
        out = "".join(line + "\n" for line in failures)
        out += f"FAILED: {len(failures)} of the exact checks\n"
        return 1, out, err
    return 0, "all passed\n", err


def _run_adjudicate(args) -> tuple[int, str, str]:
    base = default_grid()
    grid = SweepGrid(
        lambdas=args.lams if args.lams is not None else base.lambdas,
        productions=args.productions if args.productions is not None else base.productions,
        times=args.t_list if args.t_list is not None else base.times,
    )
    report = adjudicate(
        grid,
        candidates=_pick_candidates(args.candidate),
        match_tol=args.match_tol,
        oracle_tol=args.oracle_tol,
        inversion=InversionConfig(order=args.gs_order),
    )
    rendered = render_report(report, args.format)
    err_lines = []
    for s in report.summary:
        worst = "" if s.max_abs_dev is None else f", max abs dev {s.max_abs_dev:.3g}"
        err_lines.append(f"{s.candidate.value}: {s.verdict}{worst}")
    err = "".join(line + "\n" for line in err_lines)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8", newline="") as sink:
            sink.write(rendered)
        return 0, "", err
    return 0, rendered, err


_HANDLERS = {
    "eval": _run_eval,
    "cumulative": _run_cumulative,
    "invert": _run_invert,
    "simulate": _run_simulate,
    "identities": _run_identities,
    "adjudicate": _run_adjudicate,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, out, err = _HANDLERS[args.command](args)
    except _UsageError as exc:
        sys.stderr.write(f"backlog-lab: error: {exc}\n")
        return 3
    except DomainError as exc:
        sys.stderr.write(f"backlog-lab: domain error: {exc}\n")
        return 1
    except AccuracyError as exc:
        sys.stderr.write(f"backlog-lab: accuracy error: {exc}\n")
        return 2
    if err:
        sys.stderr.write(err)
    if out:
        sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
