"""Checks of the program's outputs against the HiGHS reference and the paper.

Each workload turns its outputs into ``Row`` records; ``check_row`` returns
one message per violated property (an empty list means the row is right):

* the reported costs, and the cost of any reported build (which must be
  feasible), equal the reference optimum;
* interior rows: every long-run price equals the reference's flow-balance
  dual; boundary rows: it lies in the reference's dual interval;
* the reported group is right: on interior rows it sits in the cluster that
  demand and capacities select, and on every row the group's own table
  formulas give a feasible build at the reference optimum and the reported
  prices;
* resolved short-run prices are one of CP_r, CP_f, CL, and on interior rows
  no higher than the long-run price;
* long-run profit is at least -1e-6.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

TOL = 1e-6          # relative agreement of prices and costs
PROFIT_FLOOR = -1e-6

#: group ids by cluster, from the paper's numbering
CLUSTERS = {1: range(1, 9), 2: range(9, 17), 3: range(17, 24),
            4: range(24, 30), 5: range(30, 35), 6: range(35, 42)}


class Row(NamedTuple):
    params: dict                  # the nine model parameters
    gid: int
    boundary: bool
    lrmc: tuple                   # closed-form long-run prices
    srmc: tuple                   # short-run prices
    profit: float                 # long-run profit at the closed-form build
    costs: tuple                  # every total cost the program reports
    profile: Optional[int] = None
    lrmc_lp: Optional[tuple] = None   # LP-route long-run prices, where reported
    build: Optional[tuple] = None     # reported (I, P, L) build, where reported


def close(a, b, tol=TOL):
    return abs(a - b) <= tol * (1.0 + max(abs(a), abs(b)))


def _env(p):
    return dict(p, t_sr=p["ci_r"] / 2 + p["cp_r"], t_sf=p["ci_f"] / 2 + p["cp_f"],
                t_r=p["ci_r"] + p["cp_r"], t_f=p["ci_f"] + p["cp_f"])


def cluster_of(p):
    """Cluster by peak orientation and where off-peak demand sits."""
    peak2 = p["d1"] <= p["d2"]
    off = p["d1"] if peak2 else p["d2"]
    band = 0 if off <= p["m_r"] else 1 if off <= p["m_r"] + p["m_f"] else 2
    return (1 if peak2 else 4) + band


def table_build(spec, p):
    """(build, prices) that the group's table formulas give at ``p``.

    The build is (I_r1, I_r2, I_f1, I_f2, P_r1, P_r2, P_f1, P_f2, L_1, L_2),
    with the tabulated shed and generation filling the rest of demand,
    renewable first.
    """
    env = _env(p)
    ev = [float(eval(s, {"__builtins__": {}}, env))  # noqa: S307 - table strings
          for s in spec.invest + spec.shed + spec.lrmc]
    i_r1, i_r2, i_f1, i_f2, l_1, l_2, lam_1, lam_2 = ev
    p_r1 = min(i_r1, p["d1"] - l_1)
    p_r2 = min(i_r1 + i_r2, p["d2"] - l_2)
    return ((i_r1, i_r2, i_f1, i_f2, p_r1, p_r2, p["d1"] - l_1 - p_r1,
             p["d2"] - l_2 - p_r2, l_1, l_2), (lam_1, lam_2))


def build_cost(x, p):
    return (p["ci_r"] * (x[0] + x[1]) + p["ci_f"] * (x[2] + x[3])
            + p["cp_r"] * (x[4] + x[5]) + p["cp_f"] * (x[6] + x[7])
            + p["cl"] * (x[8] + x[9]))


def build_violation(x, p):
    """Largest violation of the long-run constraints by build ``x``."""
    i_r1, i_r2, i_f1, i_f2, p_r1, p_r2, p_f1, p_f2, l_1, l_2 = x
    v = [-min(x)]
    v += [i_r1 - p["m_r"], i_r2 - p["m_r"], i_f1 - p["m_f"], i_f2 - p["m_f"],
          p_r1 - i_r1, p_r2 - i_r1 - i_r2, p_f1 - i_f1, p_f2 - i_f1 - i_f2,
          abs(p_r1 + p_f1 + l_1 - p["d1"]), abs(p_r2 + p_f2 + l_2 - p["d2"])]
    return max(v)


def check_row(row: Row, ref, groups) -> list:
    """Messages for every property ``row`` violates; ``groups`` maps a
    group id to its table entry (the program's own table, under test)."""
    p, bad = row.params, []
    z, lam = ref.long_run(p)
    scale = 1.0 + max(p["d1"], p["d2"], p["m_r"], p["m_f"])

    for cost in row.costs:
        if not close(cost, z):
            bad.append(f"cost {cost!r} != reference optimum {z!r}")
    if row.build is not None:
        if build_violation(row.build, p) > 1e-9 * scale:
            bad.append("reported build is infeasible")
        elif not close(build_cost(row.build, p), z):
            bad.append(f"reported build costs {build_cost(row.build, p)!r}, "
                       f"reference optimum {z!r}")

    spec = groups.get(row.gid)
    if spec is None:
        bad.append(f"group {row.gid!r} is not one of the 41")
    else:
        if not row.boundary and row.gid not in CLUSTERS[cluster_of(p)]:
            bad.append(f"group {row.gid} is outside cluster {cluster_of(p)}")
        if row.profile is not None and row.profile != spec.profile_id:
            bad.append(f"profile {row.profile} != group {row.gid}'s {spec.profile_id}")
        x, table_lam = table_build(spec, p)
        if build_violation(x, p) > 1e-9 * scale:
            bad.append(f"group {row.gid}'s build is infeasible here")
        elif not close(build_cost(x, p), z):
            bad.append(f"group {row.gid}'s build costs {build_cost(x, p)!r}, "
                       f"reference optimum {z!r}")
        if not all(close(a, b) for a, b in zip(table_lam, row.lrmc)):
            bad.append(f"prices {row.lrmc} are not group {row.gid}'s {table_lam}")

    for name, pair in (("lrmc", row.lrmc), ("lrmc_lp", row.lrmc_lp)):
        if pair is None:
            continue
        for t in (1, 2):
            price = pair[t - 1]
            if row.boundary:
                lo, hi = ref.interval(p, t)
                if not (lo - TOL * (1 + abs(lo)) <= price <= hi + TOL * (1 + abs(hi))):
                    bad.append(f"{name}_{t} {price!r} outside reference [{lo!r}, {hi!r}]")
            elif not close(price, lam[t - 1]):
                bad.append(f"{name}_{t} {price!r} != reference dual {lam[t - 1]!r}")

    allowed = (p["cp_r"], p["cp_f"], p["cl"])
    for t in (1, 2):
        s = row.srmc[t - 1]
        if not any(close(s, a) for a in allowed):
            bad.append(f"srmc_{t} {s!r} is none of CP_r, CP_f, CL")
        if not row.boundary and s > row.lrmc[t - 1] + TOL * (1 + abs(row.lrmc[t - 1])):
            bad.append(f"srmc_{t} {s!r} above lrmc {row.lrmc[t - 1]!r}")

    if row.profit < PROFIT_FLOOR:
        bad.append(f"long-run profit {row.profit!r} below {PROFIT_FLOOR}")
    return bad


def check_rows(rows, ref, groups, limit=10):
    """(number of bad rows, the first ``limit`` messages)."""
    n_bad, msgs = 0, []
    for row in rows:
        bad = check_row(row, ref, groups)
        if bad:
            n_bad += 1
            if len(msgs) < limit:
                msgs.append(f"gid {row.gid} at {row.params}: " + "; ".join(bad))
    return n_bad, msgs
