"""The three workloads: seeded inputs, one timed round, outputs to check.

A workload object holds the inputs of one round, built from ``--seed`` and
the round's index alone, so no round repeats an earlier one's inputs and a
cache of earlier results cannot stand in for the work.  Its ``units`` are
calls; one round makes every call once, in order, and the harness times
each call; ``items`` counts the items of a round, the same in every round.
``failed(out)`` counts failed items in one round's outputs, and
``rows(out)`` turns them into ``checks.Row`` records.

Functions are looked up on their modules at call time, so the tracer's
wrappers (installed on those modules) see every call.
"""

from __future__ import annotations

import functools
import io
import json
import math
import re
from pathlib import Path

import numpy as np

from genmargin import cli, groups, lp, model, pricing, sampling, srmc, verify

from checks import Row

PARAMS = ("ci_r", "cp_r", "m_r", "ci_f", "cp_f", "m_f", "cl", "d1", "d2")

#: scenarios per selftest round
SELFTEST_N = 50
#: sweep grids: one per loadshed band, each (2*SPAN+1)^2 points with
#: m_r + m_f = SPAN grid steps, so every capacity threshold is a grid point
SWEEP_SPAN = 5
#: parameter sets per regime-map round
REGIME_N = 1000
#: distinct groups the regime-map inputs must reach
REGIME_MIN_GROUPS = 35


def _params_dict(params):
    return {k: float(getattr(params, k)) for k in PARAMS}


def _build(d):
    return (d.i_r1, d.i_r2, d.i_f1, d.i_f2, d.p_r1, d.p_r2, d.p_f1, d.p_f2, d.l_1, d.l_2)


# ---------------------------------------------------------------------------
# selftest: the randomized verification verb
# ---------------------------------------------------------------------------


class Selftest:
    """``cli.run_selftest(verb_seed, SELFTEST_N)``; one item is one scenario.
    Round ``r`` gives the verb its own seed, so no round repeats another."""

    _PASS = re.compile(r"pass (\d+)/(\d+), distinct groups (\d+)")

    def __init__(self, seed: int, rnd: int = 0, n: int = SELFTEST_N):
        self.verb_seed = int(np.random.SeedSequence([seed, 1, rnd]).generate_state(1)[0])
        self.items = n
        self.units = [self.run]

    def run(self):
        buf = io.StringIO()
        try:
            cli.run_selftest(self.verb_seed, self.items, out=buf)
        except lp.LpError as exc:       # the verb's loop does not catch these
            return f"raised {type(exc).__name__}: {exc}"
        return buf.getvalue()

    def _summary(self, out):
        m = self._PASS.search(out[0])
        return None if m is None else tuple(int(g) for g in m.groups())

    def failed(self, out):
        s = self._summary(out)
        return self.items if s is None else self.items - s[0]

    def rows(self, out):
        """The verb's scenarios, re-drawn and re-run with the calls the verb
        makes, with the program's prices for each.  Scenarios that fail
        (cross-check, short-run rule or an ``LpError``) are left out; their
        number and the group count must match the verb's summary.  A round
        in which the verb raised is failed whole and leaves no rows."""
        s = self._summary(out)
        if s is None:
            return [], []
        rng = np.random.default_rng(self.verb_seed)
        rows, gids, n_failed = [], set(), 0
        for _ in range(self.items):
            params = sampling.random_params(rng)
            try:
                rep = verify.cross_check(params)
                gids.add(rep.gid)
                if not rep.passed:
                    n_failed += 1
                    continue
                lr = model.solve_lrmc(params)
                short = srmc.compute_srmc(params, lr.decision)
            except lp.LpError:
                n_failed += 1
                continue
            if not all(_rule_holds(params, short, t) for t in (0, 1)):
                n_failed += 1
                continue
            group = groups.classify(params)
            analytic = groups.analytic_solution(params, group)
            rec = pricing.cost_recovery(analytic.lrmc, analytic.decision, params)
            rows.append(Row(
                params=_params_dict(params), gid=group.gid, boundary=group.boundary,
                lrmc=analytic.lrmc, srmc=short.resolved, profit=rec.profit,
                costs=(rec.total_cost, lr.objective),
                lrmc_lp=(lr.duals.lam_1, lr.duals.lam_2),
                build=_build(analytic.decision)))
        extra = []
        if s[0] != self.items - n_failed:
            extra.append(f"verb reports {s[0]} passed, its scenarios pass "
                         f"{self.items - n_failed}")
        if s[2] != len(gids):
            extra.append(f"verb reports {s[2]} distinct groups, its scenarios "
                         f"hold {len(gids)}")
        return rows, extra


def _rule_holds(params, short, t):
    """The verb's short-run rule check for period ``t``."""
    cp = short.marginal_cp[t]
    want = params.cl if cp is None else srmc.predict_srmc_from_lrmc(
        short.lrmc[t], cp, params.cl)
    return abs(want - short.resolved[t]) <= 1e-6


# ---------------------------------------------------------------------------
# sweep: the CSV verb over 2-D demand grids
# ---------------------------------------------------------------------------


def _integer_costs(rng):
    """Integer costs on a strict ladder t_sr < t_sf < t_r < t_f."""
    while True:
        ci_r = int(rng.integers(10, 101))
        cp_r = int(rng.integers(1, 21))
        ci_f = int(rng.integers(ci_r + 1, 241))
        cp_f = int(rng.integers(cp_r + 1, 51))
        ladder = (ci_r / 2 + cp_r, ci_f / 2 + cp_f, ci_r + cp_r, ci_f + cp_f)
        if ladder[0] < ladder[1] < ladder[2] < ladder[3]:
            return dict(ci_r=ci_r, cp_r=cp_r, ci_f=ci_f, cp_f=cp_f), ladder


def sweep_configs(seed: int, rnd: int = 0):
    """Five config dicts for round ``rnd``, one per loadshed band (below
    t_sr, between each pair of ladder rungs, above t_f), each with its own
    costs and caps."""
    rng = np.random.default_rng([seed, 2, rnd])
    out = []
    for band in range(5):
        costs, ladder = _integer_costs(rng)
        a = int(rng.integers(1, SWEEP_SPAN))
        unit = 60 * int(rng.integers(1, 41))
        edges = (0.0, *ladder, 1.5 * ladder[-1])
        cl = round(edges[band] + (edges[band + 1] - edges[band])
                   * float(rng.uniform(0.2, 0.8)), 3)
        top = 2 * SWEEP_SPAN * unit
        grid = {"from": 0, "to": top, "steps": 2 * SWEEP_SPAN + 1}
        out.append(dict(costs, m_r=a * unit, m_f=(SWEEP_SPAN - a) * unit, cl=cl,
                        d1=0, d2=0,
                        sweep=[dict(grid, param="d1"), dict(grid, param="d2")],
                        output={"format": "csv"}))
    return out


class Sweep:
    """``cli.run_sweep(cli.load_config(path))`` over five grid configs;
    one item is one CSV row.  Every round draws its own five configs."""

    def __init__(self, seed: int, rnd: int, workdir: Path):
        self.configs = sweep_configs(seed, rnd)
        self.paths = []
        for k, cfg in enumerate(self.configs):
            path = workdir / f"sweep{k}.json"
            path.write_text(json.dumps(cfg))
            self.paths.append(str(path))
        self.units = [functools.partial(self.run, path) for path in self.paths]
        self.items = sum(c["sweep"][0]["steps"] * c["sweep"][1]["steps"]
                         for c in self.configs)

    def run(self, path):
        return cli.run_sweep(cli.load_config(path))

    def _lines(self, out):
        for code, text in out:
            yield from text.splitlines()[1:]

    def failed(self, out):
        # run_sweep exits 0 even when rows say "error"; count the rows
        return sum(line.split(",")[2] == "error" for line in self._lines(out))

    def rows(self, out):
        rows, extra = [], []
        for cfg, (code, text) in zip(self.configs, out):
            lines = text.splitlines()
            if code != 0 or lines[0] != "d1,d2," + ",".join(cli.SWEEP_COLUMNS):
                extra.append(f"sweep exit {code}, header {lines[:1]}")
                continue
            for line in lines[1:]:
                cells = line.split(",")
                if cells[2] == "error":
                    continue
                d1, d2, gid, profile, l1, l2, s1, s2, p_l, p_s = map(float, cells[:10])
                p = {k: float(cfg[k]) for k in PARAMS}
                p.update(d1=d1, d2=d2)
                # both profits are revenue minus the same build cost
                costs = (d1 * l1 + d2 * l2 - p_l, d1 * s1 + d2 * s2 - p_s)
                rows.append(Row(params=p, gid=int(gid), boundary=cells[10] == "true",
                                lrmc=(l1, l2), srmc=(s1, s2), profit=p_l,
                                costs=costs, profile=int(profile)))
        if len(rows) + self.failed(out) != self.items:
            extra.append(f"sweep wrote {len(rows) + self.failed(out)} rows, "
                         f"expected {self.items}")
        return rows, extra


# ---------------------------------------------------------------------------
# regime-map: the closed-form route only
# ---------------------------------------------------------------------------


def regime_params(seed: int, rnd: int = 0, n: int = REGIME_N):
    """n parameter dicts for round ``rnd`` on a strict cost ladder,
    stratified so that every loadshed band and every off-peak cluster band
    is drawn equally often."""
    rng = np.random.default_rng([seed, 3, rnd])

    def loguniform(lo, hi, size):
        return np.exp(rng.uniform(math.log(lo), math.log(hi), size))

    costs = np.empty((0, 4))
    while len(costs) < n:       # costs redrawn until the ladder holds
        c = np.column_stack([loguniform(5.0, 120.0, 4 * n), loguniform(0.2, 25.0, 4 * n),
                             loguniform(5.0, 240.0, 4 * n), loguniform(0.2, 50.0, 4 * n)])
        ci_r, cp_r, ci_f, cp_f = c.T
        ladder = np.column_stack([ci_r / 2 + cp_r, ci_f / 2 + cp_f, ci_r + cp_r, ci_f + cp_f])
        ok = ((ci_r < ci_f) & (cp_r < cp_f)
              & np.all(ladder[:, 1:] > ladder[:, :-1] * (1 + 1e-3), axis=1))
        costs = np.vstack([costs, c[ok]])
    ci_r, cp_r, ci_f, cp_f = costs[:n].T
    m_r = loguniform(300.0, 8000.0, n)
    m_f = loguniform(300.0, 8000.0, n)
    t_sr, t_sf, t_r, t_f = ci_r / 2 + cp_r, ci_f / 2 + cp_f, ci_r + cp_r, ci_f + cp_f
    edges = np.column_stack([0.5 * t_sr, t_sr, t_sf, t_r, t_f, 2.0 * t_f])
    band = rng.integers(5, size=n)
    rows = np.arange(n)
    cl = rng.uniform(edges[rows, band], edges[rows, band + 1])
    cap = m_r + m_f
    cluster = rng.integers(3, size=n)
    lo = np.choose(cluster, [np.zeros(n), m_r, cap])
    hi = np.choose(cluster, [m_r, cap, 2.0 * cap])
    off = rng.uniform(lo, hi)
    peak = rng.uniform(off, 2.5 * cap)
    swap = rng.random(n) < 0.5
    d1, d2 = np.where(swap, off, peak), np.where(swap, peak, off)
    cols = dict(ci_r=ci_r, cp_r=cp_r, m_r=m_r, ci_f=ci_f, cp_f=cp_f, m_f=m_f,
                cl=cl, d1=d1, d2=d2)
    return [{k: float(v[i]) for k, v in cols.items()} for i in range(n)]


class RegimeMap:
    """classify -> analytic_solution -> cost_recovery -> srmc_profile;
    one item is one parameter set.  Every round draws its own sets."""

    def __init__(self, seed: int, rnd: int = 0, n: int = REGIME_N):
        self.inputs = [model.SystemParams.from_values(**p)
                       for p in regime_params(seed, rnd, n)]
        self.items = n
        self.units = [self.run]

    def run(self):
        classify, analytic_solution = groups.classify, groups.analytic_solution
        cost_recovery, srmc_profile = pricing.cost_recovery, pricing.srmc_profile
        profile_for, orientation = pricing.lrmc_profile_for_group, pricing.group_orientation
        out = []
        for params in self.inputs:
            try:
                group = classify(params)
                analytic = analytic_solution(params, group)
                rec = cost_recovery(analytic.lrmc, analytic.decision, params)
                short = srmc_profile(profile_for(group.gid), params,
                                     orientation(group.gid))
                out.append((group, analytic, rec.profit, rec.total_cost, short.prices))
            except ValueError as exc:
                out.append(("error", str(exc)))
        return out

    def failed(self, out):
        return sum(item[0] == "error" for item in out[0])

    def rows(self, out):
        rows = []
        for params, item in zip(self.inputs, out[0]):
            if item[0] == "error":
                continue
            group, analytic, profit, total_cost, short = item
            rows.append(Row(params=_params_dict(params), gid=group.gid,
                            boundary=group.boundary, lrmc=analytic.lrmc, srmc=short,
                            profit=profit, costs=(total_cost,),
                            profile=analytic.profile_id, build=_build(analytic.decision)))
        n_groups = len({r.gid for r in rows})
        extra = [] if n_groups >= REGIME_MIN_GROUPS else [
            f"inputs reach {n_groups} groups, fewer than {REGIME_MIN_GROUPS}"]
        return rows, extra


def round_of(wl):
    """One untimed round: every unit's output, in order."""
    return [call() for call in wl.units]


def make(name: str, seed: int, rnd: int, workdir: Path):
    """The workload ``name`` with the inputs of round ``rnd``."""
    if name == "selftest":
        return Selftest(seed, rnd)
    if name == "sweep":
        return Sweep(seed, rnd, workdir)
    if name == "regime-map":
        return RegimeMap(seed, rnd)
    raise ValueError(f"unknown workload {name!r}")
