#!/usr/bin/env python3
"""Walk through one scenario end to end.

Builds the two-technology, two-period expansion model for the canonical
parameter set, solves it, and reads the marginal prices off the
flow-balance duals.  The classifier's closed-form answer is printed next
to the LP's so you can see them agree digit for digit.
"""

from genmargin import (
    SystemParams,
    analytic_solution,
    build_lrmc_primal,
    classify,
    solve_lp,
    solve_lrmc,
    used_options,
)

params = SystemParams.from_values(
    ci_r=60, cp_r=1, m_r=3000,     # renewable: invest, operate, build cap
    ci_f=82, cp_f=20, m_f=4000,    # fossil
    cl=200,                        # loadshed penalty
    d1=2000, d2=8000,              # off-peak and peak demand
)

print("== the raw linear program ==")
prob = build_lrmc_primal(params)
print(f"{prob.n_vars} variables, {prob.n_rows} rows")
print("objective:", {k: float(v) for k, v in zip(prob.var_labels, prob.c)})

sol = solve_lp(prob)
print(f"\nstatus {sol.status}, objective {sol.objective:,.0f}")
print("flow-balance duals (the long-run marginal costs):",
      tuple(round(float(v), 6) for v in sol.duals[:2]))

print("\n== model coordinates ==")
lr = solve_lrmc(params)
d = lr.decision
print(f"invest  renewable ({d.i_r1:g}, {d.i_r2:g})  fossil ({d.i_f1:g}, {d.i_f2:g})")
print(f"run     renewable ({d.p_r1:g}, {d.p_r2:g})  fossil ({d.p_f1:g}, {d.p_f2:g})")
print(f"shed    ({d.l_1:g}, {d.l_2:g})")
print(f"capacity values beta: r=({lr.duals.beta_r1:g}, {lr.duals.beta_r2:g}) "
      f"f=({lr.duals.beta_f1:g}, {lr.duals.beta_f2:g})")
print(f"opportunity costs gamma: r=({lr.duals.gamma_r1:g}, {lr.duals.gamma_r2:g}) "
      f"f=({lr.duals.gamma_f1:g}, {lr.duals.gamma_f2:g})")

print("\n== the closed-form route ==")
group = classify(params)
res = analytic_solution(params, group)
print(f"instance group {group.gid} (cluster {group.cluster}, "
      f"peak period {group.peak_period}), price profile {res.profile_id}")
print(f"closed-form prices ({res.lrmc[0]:g}, {res.lrmc[1]:g}) "
      f"vs LP duals ({lr.duals.lam_1:g}, {lr.duals.lam_2:g})")
options = used_options(params, res.decision)
print("options in use:", tuple(sorted(options[0])), tuple(sorted(options[1])))
