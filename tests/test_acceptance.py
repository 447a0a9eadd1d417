"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria 2-6 and 8 share a single seeded sweep of 10,000 interior
scenarios, computed once per test session.  Run with ``pytest -s
tests/test_acceptance.py`` to watch the per-criterion lines.
"""

import time
from dataclasses import dataclass

import numpy as np
import pytest

from genmargin.groups import (
    analytic_solution,
    classify,
    representative_params,
)
from genmargin.lp import solve_lp
from genmargin.model import build_srmc_primal, solve_lrmc
from genmargin.pricing import (
    ZERO_RENT_GROUPS,
    cost_recovery,
    group_orientation,
    lrmc_profile_for_group,
    srmc_profile,
)
from genmargin.sampling import random_params
from genmargin.srmc import compute_srmc, predict_srmc_from_lrmc
from genmargin.verify import cross_check

from model_vectors import decision_vector

SEED = 20240817
N_SCENARIOS = 10_000


def report(n, ok, text):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, text


@dataclass
class Record:
    params: object
    gid: int
    profile: int
    check: object
    lr: object
    analytic: object
    srmc: object
    rent: float


@pytest.fixture(scope="module")
def sweep():
    rng = np.random.default_rng(SEED)
    records = []
    cross_time = 0.0
    for _ in range(N_SCENARIOS):
        params = random_params(rng)
        t0 = time.perf_counter()
        check = cross_check(params)
        cross_time += time.perf_counter() - t0
        lr = solve_lrmc(params)
        analytic = analytic_solution(params, classify(params))
        srmc = compute_srmc(params, lr.decision, lrmc_objective=lr.objective)
        rent = sum(
            params.m(g) * lr.duals.gamma(g, t)
            for g in ("r", "f") for t in (1, 2)
        )
        records.append(Record(params, check.gid, analytic.profile_id, check,
                              lr, analytic, srmc, rent))
    return records, cross_time


def test_criterion_1_group_table_reproduction():
    t0 = time.perf_counter()
    bad = []
    for gid in range(1, 42):
        params = representative_params(gid)
        group = classify(params)
        if group.gid != gid or group.boundary:
            bad.append((gid, "classification"))
            continue
        res = analytic_solution(params, group)
        lr = solve_lrmc(params)   # the simplex's vertex: the closed form's build here
        d_err = float(np.max(np.abs(decision_vector(res.decision)
                                    - decision_vector(lr.decision))))
        l_err = max(abs(res.lrmc[0] - lr.duals.lam_1),
                    abs(res.lrmc[1] - lr.duals.lam_2))
        if d_err > 1e-6 or l_err > 1e-6:
            bad.append((gid, f"decision {d_err:.2g}, prices {l_err:.2g}"))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 1.0
    report(1, ok,
           f"{41 - len(bad)}/41 closed-form rows match the LP exactly "
           f"(decision and prices within 1e-6) in {elapsed:.2f}s"
           + (f"; failures: {bad}" if bad else ""))


def test_criterion_2_randomized_oracle_sweep(sweep):
    records, cross_time = sweep
    failures = [
        (r.gid, [c.name for c in r.check.failures()])
        for r in records if not r.check.passed
    ]
    ok = not failures and cross_time < 30.0
    report(2, ok,
           f"cross-check passed on {len(records) - len(failures)}/{len(records)} "
           f"scenarios in {cross_time:.1f}s"
           + (f"; first failures: {failures[:5]}" if failures else ""))


def test_criterion_3_lrmc_cost_recovery(sweep):
    records, _ = sweep
    bad = []
    zero_seen = strict_seen = 0
    for r in records:
        rep = cost_recovery(r.analytic.lrmc, r.analytic.decision, r.params)
        if rep.profit < -1e-6:
            bad.append((r.gid, "negative profit", rep.profit))
        if abs(rep.profit - r.rent) > 1e-6 * (1 + abs(rep.profit)):
            bad.append((r.gid, "profit != investment-bound rent", rep.profit, r.rent))
        if r.gid in ZERO_RENT_GROUPS:
            zero_seen += 1
            if abs(rep.profit) > 1e-6:
                bad.append((r.gid, "expected exact recovery", rep.profit))
        elif r.profile in (4, 5, 6, 7):
            strict_seen += 1
            if not rep.profit > 0:
                bad.append((r.gid, "expected strictly positive profit", rep.profit))
    ok = not bad and zero_seen > 100 and strict_seen > 100
    report(3, ok,
           f"long-run prices recover cost on all {len(records)} scenarios "
           f"(profit = capacity-bound rent; exactly zero on {zero_seen} "
           f"single-technology draws, strictly positive on {strict_seen} "
           f"rent-earning draws)" + (f"; failures: {bad[:5]}" if bad else ""))


def test_criterion_4_srmc_rules(sweep):
    records, _ = sweep
    bad = []
    for r in records:
        for t in (0, 1):
            predicted = predict_srmc_from_lrmc(r.srmc.lrmc[t], r.srmc.marginal_cp[t],
                                               r.params.cl)
            if abs(predicted - r.srmc.resolved[t]) > 1e-6:
                bad.append((r.gid, t + 1, predicted, r.srmc.resolved[t]))
            if r.srmc.resolved[t] > r.srmc.lrmc[t] + 1e-6:
                bad.append((r.gid, t + 1, "short-run above long-run"))
    ok = not bad
    report(4, ok,
           f"rule-predicted short-run prices equal the resolved duals on all "
           f"{len(records)} scenarios, and never exceed the long-run prices"
           + (f"; failures: {bad[:5]}" if bad else ""))


def test_criterion_5_degeneracy_interval(sweep):
    records, _ = sweep
    bad = []
    interior = 0
    for r in records:
        cl = r.params.cl
        for t in (0, 1):
            cp = r.srmc.marginal_cp[t]
            if cp is None or not (cp + 1e-6 < r.srmc.lrmc[t] < cl - 1e-6):
                continue
            interior += 1
            lo, hi = r.srmc.intervals[t]
            if abs(lo - cp) > 1e-6 or abs(hi - cl) > 1e-6:
                bad.append((r.gid, t + 1, "interval", (lo, hi), (cp, cl)))
            if abs(r.srmc.resolved[t] - lo) > 1e-6:
                bad.append((r.gid, t + 1, "not lower endpoint"))
    ok = not bad and interior > 500
    report(5, ok,
           f"on {interior} strictly-interior periods the unresolved dual set "
           f"equals [marginal operating cost, loadshed cost] and resolution "
           f"picks the lower endpoint"
           + (f"; failures: {bad[:5]}" if bad else ""))


def test_criterion_6_srmc_recovery(sweep):
    records, _ = sweep
    bad = []
    confirmed = missing = 0
    for r in records:
        profile = lrmc_profile_for_group(r.gid)
        table = srmc_profile(profile, r.params, group_orientation(r.gid))
        if table.recovered != (r.profile in (1, 4)):
            bad.append((r.gid, "flag mismatch"))
            continue
        rep = cost_recovery(table.prices, r.analytic.decision, r.params)
        if table.recovered:
            confirmed += 1
            if rep.profit < -1e-6:
                bad.append((r.gid, "recovered profile lost money", rep.profit))
        elif r.gid in ZERO_RENT_GROUPS:
            missing += 1
            if rep.profit >= -1e-6:
                bad.append((r.gid, "expected missing money", rep.profit))
        if r.profile == 3:
            d_p = max(r.params.d1, r.params.d2)
            ci_g = r.params.ci(profile.marginal_tech)
            lrmc_profit = cost_recovery(r.analytic.lrmc, r.analytic.decision,
                                        r.params).profit
            want = lrmc_profit - d_p * ci_g
            if abs(rep.profit - want) > 1e-6 * (1 + abs(want)):
                bad.append((r.gid, "missing-money identity", rep.profit, want))
            if r.gid in ZERO_RENT_GROUPS and abs(rep.profit + d_p * ci_g) > 1e-6:
                bad.append((r.gid, "exact -D_p*CI_g identity", rep.profit))
    ok = not bad and confirmed > 100 and missing > 100
    report(6, ok,
           f"short-run recovery flag tracks the two price-preserving profiles "
           f"on all {len(records)} scenarios; numerically confirmed on "
           f"{confirmed} recovered and {missing} single-technology "
           f"missing-money draws, with the peak-investment loss identity for "
           f"the split-build profile" + (f"; failures: {bad[:5]}" if bad else ""))


def test_criterion_7_regime_map_breakpoints():
    from genmargin.model import SystemParams
    base = dict(ci_r=60, cp_r=1, m_r=3000, ci_f=82, cp_f=20, m_f=4000,
                cl=200, d1=2000)
    grid = np.linspace(2000, 14800, 129)
    step = float(grid[1] - grid[0])
    seq = []
    for d2 in grid:
        params = SystemParams.from_values(**base, d2=float(d2))
        g = classify(params)
        if not g.boundary:
            seq.append((float(d2), g.gid))
    groups = [g for _, g in seq]
    expected_breaks = {(3, 4): 5000.0, (4, 6): 6000.0, (6, 7): 10000.0,
                       (7, 8): 14000.0}
    bad = []
    if set(groups) != {3, 4, 6, 7, 8}:
        bad.append(f"groups visited: {sorted(set(groups))}")
    for (a, b), at in expected_breaks.items():
        cross = [d2 for (d2, g), (_, g2) in zip(seq, seq[1:])
                 if g == a and g2 == b]
        if not cross or min(abs(c - at) for c in cross) > step + 1e-9:
            bad.append(f"{a}->{b} transition not within one step of {at}")
    ok = not bad
    report(7, ok,
           "demand sweep at the canonical parameters walks groups "
           "{3, 4, 6, 7, 8} with breakpoints at 5000/6000/10000/14000 "
           "within one grid step" + (f"; {bad}" if bad else ""))


def test_criterion_8_perturbation_stability(sweep):
    records, _ = sweep
    bad = []
    for r in records:
        eps = r.srmc.epsilon
        sol = solve_lp(build_srmc_primal(r.params, r.lr.decision,
                                         epsilon=eps / 10.0))
        resolved = (float(sol.duals[0]), float(sol.duals[1]))
        if max(abs(resolved[0] - r.srmc.resolved[0]),
               abs(resolved[1] - r.srmc.resolved[1])) > 1e-6:
            bad.append((r.gid, r.srmc.resolved, resolved))
    ok = not bad
    report(8, ok,
           f"resolved short-run prices unchanged (within 1e-6) when the "
           f"capacity slack is divided by 10, on all {len(records)} scenarios"
           + (f"; failures: {bad[:5]}" if bad else ""))
