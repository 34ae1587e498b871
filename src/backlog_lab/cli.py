"""Command-line front end.

Six subcommands expose the library: eval (pointwise expected backlog),
cumulative (one candidate or all of them), invert (Gaver-Stehfest of the
built-in images), simulate (Monte Carlo), identities (exact rational
checks), and adjudicate (the full grid comparison).  All diagnostics go to
stderr; stdout carries data only, written in one shot after the
computation finishes so a failure can never leave partial output behind.

Exit codes: 0 success, 1 domain error, 2 accuracy error, 3 usage error
(an --out path that cannot be written among them).
The BACKLOG_LAB_SEED environment variable supplies a default seed; an
explicit --seed always wins.
"""

from __future__ import annotations

import argparse
import os
import random
import sys

from .adjudicator import (
    MATCH_TOL,
    ORACLE_TOL,
    SweepGrid,
    adjudicate,
    default_grid,
    render_record,
    render_report,
    render_rows,
)
from .closed_forms import CandidateFormula, cumulative_expected_backlog, expected_backlog
from .distributions import ModelParams
from .errors import AccuracyError, DomainError, ResourceLimitError, check_int
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

# Random tables `identities` checks per family.  The worst accepted call,
# --family all --n-max 1000 --trials 1000, takes about 20 s on a 2-CPU
# Xeon virtual machine.
_MAX_TRIALS = 1000


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


def _list_of(kind, noun: str):
    """An argparse type for a comma-separated list of `kind`.

    str.split always gives at least one part, and an empty part does not
    parse, so the list is never empty.
    """

    def parse(text: str) -> tuple:
        try:
            return tuple(kind(part) for part in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {noun}, got {text!r}")

    return parse


_float_list = _list_of(float, "numbers")
_int_list = _list_of(int, "integers")


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
        return _u64(raw)
    except argparse.ArgumentTypeError as exc:
        raise _UsageError(f"BACKLOG_LAB_SEED: {exc}")


def build_parser() -> _Parser:
    parser = _Parser(prog="backlog-lab", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    # Each option that several subcommands take is defined once, in a helper
    # that adds it to a subcommand's parser at that subcommand's place for it.
    def add_model(p):
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

    def add_candidate(p):
        p.add_argument(
            "--candidate",
            choices=tuple(c.value for c in CandidateFormula) + ("all",),
            default="all",
            help="candidate tag, or all of them (default: %(default)s)",
        )

    def add_gs_order(p):
        p.add_argument(
            "--gs-order",
            type=int,
            default=InversionConfig().order,
            help="even Stehfest order between 4 and 20 (default: %(default)s)",
        )

    def add_seed(p):
        p.add_argument(
            "--seed", type=_u64, help="unsigned 64-bit seed (default: BACKLOG_LAB_SEED or 0)"
        )

    def add_format(p):
        p.add_argument(
            "--format",
            choices=("csv", "json"),
            default="csv",
            help="output format (default: %(default)s)",
        )

    p = sub.add_parser("eval", help="pointwise expected backlog at one time")
    add_model(p)
    p.add_argument("--t", type=float, required=True, help="evaluation time, in time units")

    p = sub.add_parser("cumulative", help="cumulative expected backlog of one or all candidates")
    add_model(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--t", type=float, help="evaluation time, in time units")
    group.add_argument(
        "--t-list",
        type=_float_list,
        help="comma-separated evaluation times, in time units",
    )
    add_candidate(p)
    add_format(p)

    p = sub.add_parser("invert", help="Gaver-Stehfest inversion of a built-in image")
    add_model(p)
    p.add_argument("--t", type=float, required=True, help="inversion time, in time units")
    p.add_argument(
        "--image",
        choices=("cumulative", "expected"),
        default="cumulative",
        help="which built-in image to invert (default: cumulative)",
    )
    add_gs_order(p)

    p = sub.add_parser("simulate", help="Monte Carlo estimate of the cumulative backlog")
    add_model(p)
    p.add_argument("--t", type=float, required=True, help="horizon, in time units")
    p.add_argument(
        "--paths",
        type=int,
        default=100_000,
        help="number of simulated demand paths (default: 100000)",
    )
    add_seed(p)
    add_format(p)

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
        help=f"random summand tables per family, at most {_MAX_TRIALS} (default: %(default)s)",
    )
    add_seed(p)

    grid = default_grid()
    p = sub.add_parser("adjudicate", help="sweep the candidates against the oracles")
    p.add_argument(
        "--lambda",
        dest="lams",
        type=_float_list,
        default=grid.lambdas,
        help="comma-separated demand rates, in arrivals per unit time (default grid: %(default)s)",
    )
    p.add_argument(
        "--production",
        dest="productions",
        type=_int_list,
        default=grid.productions,
        help="comma-separated production levels, in units (default grid: %(default)s)",
    )
    p.add_argument(
        "--t-list",
        type=_float_list,
        default=grid.times,
        help="comma-separated strictly ascending times, in time units (default grid: %(default)s)",
    )
    add_candidate(p)
    p.add_argument(
        "--match-tol",
        type=float,
        default=MATCH_TOL,
        help="absolute deviation below which a candidate matches (default: %(default)s)",
    )
    p.add_argument(
        "--oracle-tol",
        type=float,
        default=ORACLE_TOL,
        help="absolute error bound the series oracle must certify (default: %(default)s)",
    )
    add_gs_order(p)
    add_format(p)
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
                (params.lam, params.production, result.t, candidate.value, result.value,
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
    check_int(args.trials, "--trials", 1)
    if args.trials > _MAX_TRIALS:
        raise ResourceLimitError(f"--trials {args.trials} exceeds the ceiling of {_MAX_TRIALS}")
    rng = random.Random(_resolve_seed(args.seed))
    families = ("A1", "A2", "A3", "shift") if args.family == "all" else (args.family,)
    checks = {"A1": check_identity_a1, "A2": check_identity_a2, "A3": check_identity_a3}

    failures: list[str] = []
    diagnostics: list[str] = []
    for family in families:
        for _ in range(args.trials):
            n = rng.randint(1, args.n_max)
            if family == "shift":
                s, p = rng.randint(0, n), rng.randint(-3, 5)
                label = f"shift s={s} n={n} p={p}"
                report = check_index_shift(s, n, p, random_table(rng, n + 1))
            else:
                label = f"{family} n={n}"
                report = checks[family](n, random_table(rng, n + 1))
            # Only a shift whose lower limit s + p is clipped at zero carries
            # a detail; its outcome is a diagnostic, not a failure.
            if report.detail:
                status = "holds" if report.equal else "breaks equality"
                diagnostics.append(f"{label}: clipped at zero, {status} (diagnostic only)")
            elif not report.equal:
                failures.append(f"{label}: {report.lhs} != {report.rhs}")

    err = "".join(line + "\n" for line in diagnostics)
    if failures:
        out = "".join(line + "\n" for line in failures)
        out += f"FAILED: {len(failures)} of the exact checks\n"
        return 1, out, err
    return 0, "all passed\n", err


def _run_adjudicate(args) -> tuple[int, str, str]:
    report = adjudicate(
        SweepGrid(args.lams, args.productions, args.t_list),
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
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as sink:
                sink.write(rendered)
        except OSError as exc:
            raise _UsageError(f"cannot write --out: {exc}") from None
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
