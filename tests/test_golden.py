"""Golden outputs: CLI stdout bytes and candidate values, frozen.

Criterion 9 only compares two runs of the same code, so a refactor could
change every printed digit and still pass it.  These tests compare against
outputs stored under tests/golden/, written by the code as it stood before
the candidate table and the shared renderer replaced the hand-written
evaluators and emitters.  Any byte that moves here is a behaviour change
and has to be argued for, not regenerated.

Monte Carlo digits depend on numpy's Philox stream and reductions, which
are not pinned across numpy releases; for `simulate` the layout is pinned
exactly and the two floats to 1e-15 relative.
"""

import math
import random
import re
from pathlib import Path

import pytest

from backlog_lab.cli import main
from backlog_lab.closed_forms import CandidateFormula, cumulative_expected_backlog, expected_backlog
from backlog_lab.distributions import ModelParams, erlang_cdf, poisson_term
from backlog_lab.errors import AccuracyError, DomainError
from backlog_lab.oracles import backlog_series_oracle, cumulative_series_oracle

from test_acceptance import DOCUMENTED_INVOCATIONS

GOLDEN = Path(__file__).parent / "golden"

CLI_CASES = {argv[0]: argv for argv in DOCUMENTED_INVOCATIONS}
CLI_CASES.update(
    {
        f"{name}-json": CLI_CASES[name][:-1] + ["json"]
        for name in ("cumulative", "simulate", "adjudicate")
    }
)

_FLOAT = re.compile(r"-?\d+\.\d+(?:e[-+]\d+)?")


def _stdout(capsys, argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return out


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_stdout_matches_golden(name, capsys):
    out = _stdout(capsys, CLI_CASES[name])
    expected = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    if not name.startswith("simulate"):
        assert out == expected
        return
    assert _FLOAT.sub("#", out) == _FLOAT.sub("#", expected)
    got = [float(v) for v in _FLOAT.findall(out)]
    want = [float(v) for v in _FLOAT.findall(expected)]
    assert len(got) == len(want) == 2
    assert got == pytest.approx(want, rel=1e-15, abs=0.0)


# P in {0..3} reaches the undefined-term branches and the empty sums; the
# t = 0 column checks the boundary; lam = 100 at t >= 8 puts lam*t past the
# 700 switch to modal anchoring and overflows the printed e^{+lam t}.
SWEEP_LAMBDAS = (0.5, 1.0, 2.0, 100.0)
SWEEP_PRODUCTIONS = (0, 1, 2, 3, 4, 7, 12)
SWEEP_TIMES = (0.0, 0.3, 1.0, 2.5, 8.0, 40.0)


def _sweep_lines():
    for lam in SWEEP_LAMBDAS:
        for production in SWEEP_PRODUCTIONS:
            params = ModelParams(lam, production)
            for t in SWEEP_TIMES:
                for candidate in CandidateFormula:
                    result = cumulative_expected_backlog(params, t, candidate)
                    yield " ".join(
                        (
                            repr(lam),
                            str(production),
                            repr(t),
                            candidate.value,
                            result.value.hex(),
                            ";".join(result.warnings) or "-",
                        )
                    )


def test_candidate_values_are_bit_identical_to_frozen():
    expected = (GOLDEN / "candidates.txt").read_text(encoding="utf-8").splitlines()
    got = list(_sweep_lines())
    assert len(got) == len(expected) == 4 * 7 * 6 * 6
    mismatches = [(g, e) for g, e in zip(got, expected) if g != e]
    assert not mismatches, mismatches[:5]


def _poisson_points():
    """(lam, t) pairs: lambda*t log-uniform over [1e-3, 1e6] and lam over
    [0.1, 10], seeded, then the edges lambda*t = 0, 700 (the last index
    anchored at p_0), 701 (the first anchored at the mode) and 1e14 (where
    the modal anchor has no correct digit), and lam = 1e-300."""
    rng = random.Random(27)
    for _ in range(40):
        x = 10.0 ** rng.uniform(-3.0, 6.0)
        lam = 10.0 ** rng.uniform(-1.0, 1.0)
        yield lam, x / lam
    yield from ((1.0, 0.0), (1.0, 700.0), (1.0, 701.0), (1.0, 1e14), (1e-300, 1.0))


def _indices(x):
    """P and n around lambda*t = x: the ends, the middle of the lower side,
    the mode and its neighbours, 3 and 10 standard deviations either side,
    and past twice the mean."""
    mode, sd = math.floor(x), math.sqrt(x)
    ks = {0, 1, mode // 2, mode - 1, mode, mode + 1, 2 * mode + 2}
    ks |= {round(x + c * sd) for c in (-10, -3, 3, 10)}
    return sorted(k for k in ks if k >= 0)


def _outcome(f, *args):
    """A call's result as exact text: float.hex, an oracle's value, bound
    and term count, or the exception it raises."""
    try:
        result = f(*args)
    except (AccuracyError, DomainError) as exc:
        return f"raises {type(exc).__name__}: {exc}"
    if isinstance(result, float):
        return result.hex()
    if hasattr(result, "abs_error_bound"):
        return f"{result.value.hex()} {result.abs_error_bound.hex()} {result.n_effective}"
    return result.value.hex()


def _poisson_hex_lines():
    for lam, t in _poisson_points():
        x = lam * t
        for k in _indices(x):
            params = ModelParams(lam, k)
            calls = (
                ("poisson_term", poisson_term, (x, k)),
                ("erlang_cdf", erlang_cdf, (lam, k, t)),
                ("expected_backlog", expected_backlog, (params, t)),
                ("compact", cumulative_expected_backlog, (params, t, CandidateFormula.COMPACT)),
                ("backlog_series_oracle", backlog_series_oracle, (params, t)),
                ("cumulative_series_oracle", cumulative_series_oracle, (params, t)),
            )
            for name, f, args in calls:
                yield f"{lam!r} {t!r} {k} {name} {_outcome(f, *args)}"


def test_poisson_sums_are_bit_identical_to_frozen():
    # Every Poisson sum of the package, closed form and series oracle, at
    # seeded points and the anchor's edges: a change that moves a bit shows
    # here line by line.  One that moves bits on purpose writes the file
    # again from _poisson_hex_lines() and names the lines that moved.
    expected = (GOLDEN / "poisson-hex.txt").read_text(encoding="utf-8").splitlines()
    got = list(_poisson_hex_lines())
    assert len(got) == len(expected) > 2000
    mismatches = [(g, e) for g, e in zip(got, expected) if g != e]
    assert not mismatches, mismatches[:5]
