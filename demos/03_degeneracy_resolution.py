#!/usr/bin/env python3
"""Why the short-run price needs degeneracy resolution.

Freeze the investments of a scenario whose optimal build exactly covers
demand.  The short-run model is then primal-degenerate: the flow-balance
dual -- the short-run marginal cost -- can sit anywhere between the
marginal operating cost and the loadshed penalty, and a solver will hand
you an arbitrary point of that interval.  Slackening every capacity bound
by a small epsilon collapses the interval to its lower endpoint.
"""

from genmargin import (
    SystemParams,
    build_srmc_primal,
    compute_srmc,
    default_epsilon,
    detect_degeneracy,
    dual_value_range,
    solve_lp,
    solve_lrmc,
)

params = SystemParams.from_values(60, 1, 3000, 82, 20, 4000,
                                  cl=80, d1=2000, d2=4000)
lr = solve_lrmc(params)
print(f"long-run build: I_r = ({lr.decision.i_r1:g}, {lr.decision.i_r2:g}), "
      f"no fossil, prices ({lr.duals.lam_1:g}, {lr.duals.lam_2:g})")

frozen = build_srmc_primal(params, lr.decision, epsilon=0.0)
sol = solve_lp(frozen)
rep = detect_degeneracy(frozen, sol)
print(f"\nfrozen-investment model: objective {sol.objective:,.0f} "
      f"(same as long-run: {lr.objective:,.0f})")
print(f"primal degenerate: {rep.primal_degenerate}; "
      f"basic at zero: {[lbl for lbl, _ in rep.zero_basic]}")

for t in (1, 2):
    lo, hi = dual_value_range(frozen, f"balance_{t}", solution=sol)
    print(f"period {t} price can be anything in [{lo:g}, {hi:g}] "
          f"(solver happened to report {sol.duals[t-1]:g})")

eps = default_epsilon(params)
print(f"\nadd epsilon = {eps:g} of slack to every capacity bound:")
res = compute_srmc(params, lr.decision)
for t in (1, 2):
    print(f"period {t}: resolved short-run price {res.resolved[t-1]:g} "
          f"({res.rules[t-1]}), long-run {res.lrmc[t-1]:g}")
print("\nthe resolved price is the interval's lower endpoint: the marginal")
print("operating cost, not the loadshed penalty the upper endpoint offers")
