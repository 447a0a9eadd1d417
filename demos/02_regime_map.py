#!/usr/bin/env python3
"""Sweep peak demand and watch the regime structure appear.

At the canonical parameters with a high loadshed penalty, growing the
second-period demand walks through five instance groups: second-period
renewable build, first-period renewable spillover, then fossil in period
two, fossil in period one, and finally capacity-constrained shedding.
The group switches line up with the capacity breakpoints
D1 + M_r, 2 M_r, 2 M_r + M_f, 2 M_r + 2 M_f = 5000, 6000, 10000, 14000.

Writes regime_map.csv next to this script and prints a compact strip.
"""

import csv
import pathlib

import numpy as np

from genmargin import SystemParams, classify, analytic_solution, compute_srmc, solve_lrmc

BASE = dict(ci_r=60, cp_r=1, m_r=3000, ci_f=82, cp_f=20, m_f=4000,
            cl=200, d1=2000)

out_path = pathlib.Path(__file__).with_name("regime_map.csv")
rows = []
for d2 in np.linspace(2000, 14800, 129):
    params = SystemParams.from_values(**BASE, d2=float(d2))
    group = classify(params)
    res = analytic_solution(params, group)
    lr = solve_lrmc(params)
    srmc = compute_srmc(params, lr.decision, lrmc_objective=lr.objective)
    rows.append({
        "d2": float(d2),
        "group": group.gid,
        "profile": res.profile_id,
        "lambda_1": res.lrmc[0], "lambda_2": res.lrmc[1],
        "srmc_1": srmc.resolved[0], "srmc_2": srmc.resolved[1],
        "boundary": group.boundary,
    })

with out_path.open("w", newline="") as fh:
    w = csv.DictWriter(fh, fieldnames=list(rows[0]))
    w.writeheader()
    w.writerows(rows)
print(f"wrote {out_path} ({len(rows)} rows)")

strip = "".join(str(r["group"]) if not r["boundary"] else "|" for r in rows)
print("\ngroup per grid point (| marks a boundary hit):")
print(strip)

interior = [r for r in rows if not r["boundary"]]
print("\ngroup transitions (between interior grid points):")
for prev, cur in zip(interior, interior[1:]):
    if cur["group"] != prev["group"]:
        print(f"  d2 ~ {cur['d2']:>7.0f}: group {prev['group']} -> {cur['group']}, "
              f"peak price {prev['lambda_2']:g} -> {cur['lambda_2']:g}")
