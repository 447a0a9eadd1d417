#!/usr/bin/env python3
"""Cost recovery under long-run versus short-run pricing.

Long-run prices always recover total cost: the profit equals the rent on
binding investment caps, so it is zero when no cap binds and positive
otherwise.  Short-run prices keep only operating and shedding costs in
the price, so whenever they sit below the long-run prices investment
money goes missing.
"""

from genmargin import (
    SystemParams,
    analytic_solution,
    classify,
    compute_srmc,
    cost_recovery,
    group_orientation,
    investment_allocation,
    lrmc_profile_for_group,
    solve_lrmc,
    srmc_profile,
)

SCENARIOS = {
    "exact recovery (single-technology build)":
        SystemParams.from_values(60, 1, 3000, 82, 20, 4000, 80, 2000, 4000),
    "positive rent (fossil marginal at the peak)":
        SystemParams.from_values(60, 1, 3000, 82, 20, 4000, 200, 2000, 8000),
    "shedding in both periods":
        SystemParams.from_values(60, 1, 3000, 82, 20, 4000, 25, 2000, 4000),
}

for title, params in SCENARIOS.items():
    group = classify(params)
    res = analytic_solution(params, group)
    lr = solve_lrmc(params)
    srmc = compute_srmc(params, lr.decision, lrmc_objective=lr.objective)

    long_run = cost_recovery(res.lrmc, res.decision, params)
    short_run = cost_recovery(srmc.resolved, res.decision, params)
    table = srmc_profile(lrmc_profile_for_group(group.gid), params,
                         group_orientation(group.gid))

    print(f"== {title} ==")
    print(f"group {group.gid}, profile {res.profile_id}; "
          f"prices long-run {res.lrmc}, short-run {srmc.resolved}")
    print(f"long-run pricing : revenue {long_run.revenue:>12,.0f}  "
          f"cost {long_run.total_cost:>12,.0f}  profit {long_run.profit:>12,.0f}")
    print(f"short-run pricing: revenue {short_run.revenue:>12,.0f}  "
          f"cost {short_run.total_cost:>12,.0f}  profit {short_run.profit:>12,.0f}"
          f"  ({'recovers' if table.recovered else 'missing money'})")
    for a in investment_allocation(params, res.decision):
        print(f"shared {a.tech} build: {a.peak_share:g} of its {a.invest_cost:g} "
              f"investment cost recovered in the peak period, "
              f"{a.offpeak_share:g} off-peak [{a.rule}]")
    print()
