"""Adjudicate the six published cumulative-backlog formulas.

Each candidate is evaluated over the default sweep grid and measured
against the certified cumulative series oracle, one pass over the Poisson
terms of the integrated series, with the Gaver-Stehfest route along as a
second witness.  The verdicts are printed per candidate, the
worst offenders are shown with numbers, and the zero-time boundary
diagnostic explains where the failing formulas come from: they differ
from the true curve by a constant, visible at t=0 where the true value
has to vanish.

Run time is well under a second; the oracle certifies every grid point
to 1e-9 and in practice sits within rounding of the true value.
"""

from backlog_lab.adjudicator import (
    adjudicate,
    boundary_diagnostic,
    default_grid,
    render_report,
)
from backlog_lab.closed_forms import CandidateFormula

grid = default_grid()
print(f"grid: lam in {grid.lambdas}, P in {grid.productions}, t in {grid.times}")
print()

report = adjudicate(grid)

print(f"{'candidate':<18} {'verdict':<26} {'points':>6} {'undef':>5} "
      f"{'max abs dev':>12} {'max rel dev':>12}")
for s in report.summary:
    abs_dev = "n/a" if s.max_abs_dev is None else f"{s.max_abs_dev:.3e}"
    rel_dev = "n/a" if s.max_rel_dev is None else f"{s.max_rel_dev:.3e}"
    print(f"{s.candidate.value:<18} {s.verdict:<26} {s.n_points:>6} "
          f"{s.n_undefined:>5} {abs_dev:>12} {rel_dev:>12}")

print()
print("A few rows from the worst offender (the divergent variant):")
rows = [r for r in report.rows
        if r.candidate is CandidateFormula.ORIGINAL and r.abs_dev is not None]
rows.sort(key=lambda r: r.abs_dev, reverse=True)
for r in rows[:3]:
    print(f"  lam={r.lam} P={r.production} t={r.t}: candidate {r.candidate_value:.6e}"
          f" vs oracle {r.oracle_value:.6f}")

print()
print("Offset candidates are exactly a constant away from the truth,")
print("and the constant is P(P+1)/lam:")
failing = [r for r in report.rows
           if r.candidate is CandidateFormula.WOLFRAM and r.abs_dev is not None]
by_params = {}
for r in failing:
    by_params.setdefault((r.lam, r.production), []).append(r.abs_dev)
for (lam, production), devs in sorted(by_params.items())[:4]:
    predicted = production * (production + 1) / lam
    print(f"  lam={lam} P={production}: measured offset spread"
          f" [{min(devs):.9f}, {max(devs):.9f}]  predicted {predicted:.9f}")

print()
print("Zero-time boundary diagnostic (a formula that is nonzero at t=0")
print("cannot be a cumulative quantity):")
for row in boundary_diagnostic((0.5, 1.0, 2.0), (1, 2, 3)):
    print(f"  {row.candidate.value:<10} lam={row.lam} P={row.production}"
          f"  value at t=0: {row.candidate_value:+.6f}")

print()
print("First lines of the machine-readable report:")
for line in render_report(report, "csv").splitlines()[:4]:
    print("  " + line)
