# Independent estimates of the backlog curves, none of which shares code
# with the closed forms they are checking: a truncated series with a
# certified remainder for the pointwise curve; for the cumulative one, the
# same kind of series summed once over its integrated terms (the reference
# the adjudicator uses: each series returns its bound, and the adjudicator
# certifies a point when that bound is within its oracle tolerance),
# adaptive quadrature of the pointwise series, and a seeded Monte Carlo
# simulation.
#
# Also runs the grid-convolution check that the n-fold sum of exponential
# waits really does have the Erlang density the oracles lean on.

from backlog_lab.closed_forms import (
    CandidateFormula,
    cumulative_expected_backlog,
    expected_backlog,
)
from backlog_lab.distributions import ModelParams, erlang_density
from backlog_lab.oracles import (
    McConfig,
    backlog_series_oracle,
    cumulative_quadrature_oracle,
    cumulative_series_oracle,
    monte_carlo_cumulative,
    nfold_exponential_convolution,
)

params = ModelParams(lam=1.0, production=2)
t = 2.0

print(f"Pointwise expected backlog at lam={params.lam}, P={params.production}, t={t}")
pointwise = expected_backlog(params, t)
series = backlog_series_oracle(params, t)
print(f"  closed form     {pointwise:.15f}")
print(f"  series oracle   {series.value:.15f}"
      f"  (bound {series.abs_error_bound:.1e}, {series.n_effective} terms)")
print(f"  gap             {abs(series.value - pointwise):.2e}")

print()
print("Cumulative expected backlog over [0, t], same parameters")
closed = cumulative_expected_backlog(params, t, CandidateFormula.COMPACT).value
print(f"  closed form                 {closed:.12f}")

cseries = cumulative_series_oracle(params, t)
print(f"  cumulative series oracle    {cseries.value:.12f}"
      f"  (bound {cseries.abs_error_bound:.1e}, {cseries.n_effective} terms)")

quad = cumulative_quadrature_oracle(params, t, 1e-10)
print(f"  quadrature oracle           {quad.value:.12f}"
      f"  (bound {quad.abs_error_bound:.1e}, {quad.n_effective} evals)")

mc = monte_carlo_cumulative(params, t, McConfig(n_paths=200_000, seed=7))
print(f"  monte carlo, 200k paths     {mc.value:.12f}"
      f"  (99% half-width {mc.abs_error_bound:.1e})")

print()
print(f"  series vs closed {abs(cseries.value - closed):.2e}")
print(f"  quad vs closed   {abs(quad.value - closed):.2e}")
print(f"  mc   vs closed   {abs(mc.value - closed):.2e}"
      f"   inside CI: {abs(mc.value - closed) <= mc.abs_error_bound}")

print()
print("n-fold convolution of the exponential wait vs the Erlang density")
print("(trapezoid grid, step 1e-3, evaluated at t=1)")
for n in (2, 3, 4, 5):
    grid_value = nfold_exponential_convolution(1.0, n, 1.0, 1e-3)
    exact = erlang_density(1.0, n, 1.0)
    print(f"  n={n}  grid {grid_value:.10f}  exact {exact:.10f}"
          f"  gap {abs(grid_value - exact):.1e}")
