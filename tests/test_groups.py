import hashlib

import numpy as np
import pytest
from numpy.testing import assert_allclose

from genmargin.groups import (
    GROUPS,
    ClassificationError,
    analytic_solution,
    classify,
    generating_options,
    marginal_cp,
    representative_params,
    table_csv,
    used_options,
)
from genmargin.model import SystemParams, solve_lrmc
from genmargin.tolerances import Tolerances


def canonical(cl=200.0, d1=2000.0, d2=8000.0):
    return SystemParams.from_values(60, 1, 3000, 82, 20, 4000, cl, d1, d2)


class TestClassify:
    def test_group3(self):
        g = classify(canonical(cl=80.0, d2=4000.0))
        assert g.gid == 3 and g.cluster == 1 and g.peak_period == 2
        assert not g.boundary

    def test_group6(self):
        g = classify(canonical())
        assert g.gid == 6 and g.cluster == 1

    def test_demand_swap_of_group3(self):
        # Swapping group 3's demands lands in cluster 4; with d1 under the
        # renewable cap it is the mirrored group 26.
        g = classify(canonical(cl=80.0, d1=2500.0, d2=2000.0))
        assert g.gid == 26 and g.cluster == 4 and g.peak_period == 1
        # With d1 above the cap the mirror has no room to expand: group 27.
        g = classify(canonical(cl=80.0, d1=4000.0, d2=2000.0))
        assert g.gid == 27

    def test_group_in_cluster_range(self):
        for gid in range(1, 42):
            g = classify(representative_params(gid))
            assert g.gid == gid, f"representative for {gid} classified as {g.gid}"
            assert g.cluster == GROUPS[gid].cluster
            assert not g.boundary

    def test_boundary_tie_lower_group_wins(self):
        g = classify(canonical(d2=6000.0))   # exactly 2*m_r
        assert g.boundary
        assert g.gid == 4                    # not 6

    def test_equal_demands_flagged(self):
        g = classify(canonical(d1=5000.0, d2=5000.0))
        assert g.boundary
        assert g.cluster in (1, 2, 3)

    def test_ladder_assumption_enforced(self):
        # shared fossil dearer than non-shared renewable: no table row fits
        bad = SystemParams.from_values(10, 1, 1000, 30, 2, 1000, 50, 500, 700)
        with pytest.raises(ClassificationError):
            classify(bad)


class TestAnalyticSolution:
    def test_group3_canonical(self):
        params = canonical(cl=80.0, d2=4000.0)
        res = analytic_solution(params, classify(params))
        d = res.decision
        assert_allclose([d.i_r1, d.i_r2, d.i_f1, d.i_f2], [2000, 2000, 0, 0])
        assert_allclose([d.l_1, d.l_2], [0, 0])
        assert_allclose(res.lrmc, [1.0, 61.0])
        assert res.profile_id == 3

    def test_group1_full_shed(self):
        params = canonical(cl=20.0, d2=4000.0)
        res = analytic_solution(params, classify(params))
        assert_allclose([res.decision.l_1, res.decision.l_2], [2000, 4000])
        assert_allclose(res.lrmc, [20.0, 20.0])
        assert res.profile_id == 1

    def test_group12(self):
        params = canonical(cl=80.0, d1=4000.0, d2=5000.0)
        g = classify(params)
        assert g.gid == 12
        res = analytic_solution(params, g)
        d = res.decision
        assert_allclose([d.i_r1, d.i_r2, d.i_f1, d.i_f2], [3000, 1000, 1000, 0])
        assert_allclose(res.lrmc, [61.0, 61.0])   # 82+40-61 = 61 at canonical costs
        assert res.profile_id == 7

    def test_mismatched_group_rejected(self):
        params = canonical(cl=80.0, d2=4000.0)
        wrong = classify(canonical())
        with pytest.raises(ClassificationError):
            analytic_solution(params, wrong)

        def rejected(params, wrong, gid):
            match = rf"^group {wrong.gid} does not match these parameters \(classify: {gid}\)$"
            with pytest.raises(ClassificationError, match=match):
                analytic_solution(params, wrong)

        # every other group of the representative's cluster, and one of the
        # next cluster
        for gid in range(1, 42):
            cluster = GROUPS[gid].cluster
            others = [g for g, spec in GROUPS.items() if spec.cluster == cluster and g != gid]
            others.append(min(g for g, spec in GROUPS.items()
                              if spec.cluster == cluster % 6 + 1))
            for g in others:
                rejected(representative_params(gid), classify(representative_params(g)), gid)

        # at a tie the lower-numbered group wins; the group across the edge
        # (d1, d2 or cl moved off the tie) is rejected
        checked = 0
        for params in _edge_points():
            gid = classify(params).gid
            for sym in ("d1", "d2", "cl"):
                for step in (1 + 1e-6, 1 - 1e-6):
                    values = {f: getattr(params, f) for f in _FIELDS}
                    values[sym] = values[sym] * step + (step - 1)
                    if values[sym] < 0:
                        continue
                    across = classify(SystemParams.from_values(**values))
                    if across.gid != gid:
                        rejected(params, across, gid)
                        checked += 1
        assert checked > 500

        # a ladder violation is classify's error, whatever the group
        bad = SystemParams.from_values(10, 1, 1000, 30, 2, 1000, 50, 500, 700)
        with pytest.raises(ClassificationError, match="^group table requires") as want:
            classify(bad)
        for gid in range(1, 42):
            with pytest.raises(ClassificationError) as got:
                analytic_solution(bad, classify(representative_params(gid)))
            assert str(got.value) == str(want.value)

    def test_all_41_match_lp(self):
        for gid in range(1, 42):
            params = representative_params(gid)
            res = analytic_solution(params, classify(params))
            lr = solve_lrmc(params)
            assert_allclose(res.decision.as_vector(), lr.decision.as_vector(),
                            atol=1e-6, err_msg=f"group {gid} decision")
            assert_allclose(res.lrmc, [lr.duals.lam_1, lr.duals.lam_2],
                            atol=1e-6, err_msg=f"group {gid} prices")
            assert abs(res.decision.total_cost(params) - lr.objective) <= \
                1e-8 * (1 + abs(lr.objective)), f"group {gid} objective"

    def test_used_options_match_published_rows(self):
        # spot checks against the published per-period option sets
        expect = {
            3: ({"SR"}, {"SR", "R"}),
            4: ({"SR", "R"}, {"SR", "R"}),
            7: ({"SR", "R", "F"}, {"SR", "R", "F"}),
            12: ({"SR", "SF"}, {"SR", "SF", "R"}),
            15: ({"SR", "SF", "F"}, {"SR", "SF", "R", "F"}),
            26: ({"SR", "R"}, {"SR"}),
            33: ({"SR", "SF", "F"}, {"SR", "SF"}),
        }
        for gid, (p1, p2) in expect.items():
            params = representative_params(gid)
            res = analytic_solution(params, classify(params))
            assert used_options(params, res.decision) == (frozenset(p1), frozenset(p2)), \
                f"group {gid}"

    def test_affordability_consistency(self):
        for gid in range(1, 42):
            params = representative_params(gid)
            res = analytic_solution(params, classify(params))
            # every option in use costs less per unit than shedding
            p = params
            unit_cost = {"SR": p.ci_r / 2 + p.cp_r, "SF": p.ci_f / 2 + p.cp_f,
                         "R": p.ci_r + p.cp_r, "F": p.ci_f + p.cp_f}
            first, second = used_options(params, res.decision)
            for o in first | second:
                assert unit_cost[o] < params.cl, f"group {gid}: {o}"

    def test_marginal_cp_group14(self):
        params = representative_params(14)
        res = analytic_solution(params, classify(params))
        assert marginal_cp(params, res.decision, 1) == params.cp_f
        assert marginal_cp(params, res.decision, 2) == params.cp_f

    def test_marginal_cp_group12_dispatch_margin_is_fossil(self):
        # the investment margin of group 12's peak is non-shared renewable,
        # but fossil also runs there, so the dispatch margin is fossil
        params = representative_params(12)
        res = analytic_solution(params, classify(params))
        assert marginal_cp(params, res.decision, 2) == params.cp_f
        assert marginal_cp(params, res.decision, 1) == params.cp_f

    def test_marginal_cp_ignores_idle_fossil(self):
        # group 8 period 1: fossil capacity sits idle; renewable runs alone
        params = representative_params(8)
        res = analytic_solution(params, classify(params))
        assert marginal_cp(params, res.decision, 1) == params.cp_r


class TestRandomizedOracle:
    def test_partition_and_objective(self):
        from genmargin.sampling import random_params
        rng = np.random.default_rng(7)
        seen = set()
        for _ in range(400):
            params = random_params(rng)
            g = classify(params)
            seen.add(g.gid)
            res = analytic_solution(params, g)
            assert res.decision.is_feasible(params)
            lr = solve_lrmc(params)
            cost = res.decision.total_cost(params)
            assert abs(cost - lr.objective) <= 1e-8 * (1 + abs(lr.objective)), \
                f"group {g.gid}: analytic {cost} vs lp {lr.objective}"
            assert_allclose(res.lrmc, [lr.duals.lam_1, lr.duals.lam_2],
                            atol=1e-6, err_msg=f"group {g.gid} lambda")
        assert len(seen) >= 15

    def test_high_demand_groups_cross_check(self):
        # demands above twice the total build cap land in the all-maxed
        # groups (8, 16, 23, 41); the default sampler's demand range stops
        # short of them, so cover them with a widened range here
        from genmargin.model import solve_lrmc
        rng = np.random.default_rng(9)
        seen = set()
        for _ in range(200):
            cl = rng.uniform(115, 400)
            m_r = rng.uniform(500, 2000)
            m_f = rng.uniform(500, 2000)
            total = m_r + m_f
            d2 = rng.uniform(2.05 * total, 3.0 * total)
            d1 = rng.uniform(0, 3.5 * total)   # any off-peak band, or above d2
            params = SystemParams.from_values(60, 1, m_r, 70, 10, m_f,
                                              cl, d1, d2)
            g = classify(params)
            assert g.gid in (8, 16, 23, 41), g.gid
            seen.add(g.gid)
            res = analytic_solution(params, g)
            lr = solve_lrmc(params)
            assert abs(res.decision.total_cost(params) - lr.objective) <= \
                1e-8 * (1 + abs(lr.objective))
            if not g.boundary:
                assert abs(res.lrmc[0] - lr.duals.lam_1) <= 1e-6
                assert abs(res.lrmc[1] - lr.duals.lam_2) <= 1e-6
        assert seen == {8, 16, 23, 41}

    def test_demand_swap_symmetry(self):
        # Mirrored rows across the cluster pairs (1,4), (2,5), (3,6): the
        # same technologies serve the peak/off-peak roles after a demand
        # swap.  Only rows with a true mirror qualify; e.g. group 3 mirrors
        # to 26 only while the swapped peak stays under the renewable cap
        # (period-2 investment cannot serve period 1).
        from genmargin.sampling import random_params
        rng = np.random.default_rng(8)
        mirrors = {1: 24, 2: 25, 3: 26, 9: 30, 10: 31, 11: 32,
                   17: 35, 18: 36, 19: 37}

        def techs(params, decision, t):
            return {o[-1].lower() for o in generating_options(params, decision, t)}

        checked = 0
        for _ in range(400):
            params = random_params(rng)
            g = classify(params)
            if g.cluster not in (1, 2, 3):
                continue
            swapped = SystemParams.from_values(
                params.ci_r, params.cp_r, params.m_r, params.ci_f,
                params.cp_f, params.m_f, params.cl, params.d2, params.d1)
            g2 = classify(swapped)
            assert g2.cluster == g.cluster + 3
            if mirrors.get(g.gid) != g2.gid:
                continue
            res = analytic_solution(params, g)
            res2 = analytic_solution(swapped, g2)
            assert techs(params, res.decision, 2) == techs(swapped, res2.decision, 1)
            assert techs(params, res.decision, 1) == techs(swapped, res2.decision, 2)
            checked += 1
        assert checked > 30


def test_table_csv_has_41_rows():
    lines = table_csv().strip().splitlines()
    assert len(lines) == 42
    assert lines[0].startswith("group,cluster")


# ---------------------------------------------------------------------------
# the table as written: a reference that evaluates the raw strings
# ---------------------------------------------------------------------------

def _ref_env(p):
    """The 13 symbols of the table, computed here, not by the module."""
    return {
        "d1": p.d1, "d2": p.d2, "m_r": p.m_r, "m_f": p.m_f,
        "ci_r": p.ci_r, "cp_r": p.cp_r, "ci_f": p.ci_f, "cp_f": p.cp_f,
        "cl": p.cl,
        "t_sr": p.ci_r / 2 + p.cp_r, "t_sf": p.ci_f / 2 + p.cp_f,
        "t_r": p.ci_r + p.cp_r, "t_f": p.ci_f + p.cp_f,
    }


def _ref_eval(expr, env):
    return float(eval(compile(expr, "<reference>", "eval"),  # noqa: S307
                      {"__builtins__": {}}, env))


def _ref_rel(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _ref_classify(p, tol_bound):
    """(gid, boundary, margin) by the first-match ladder over the raw
    strings, trying rungs in order and measuring only the rungs tried."""
    from genmargin.groups import _LADDER_FALLBACK, _LADDERS
    e = _ref_env(p)
    margins = [_ref_rel(p.d1, p.d2), _ref_rel(p.d1, 0.0), _ref_rel(p.d2, 0.0)]
    peak = 2 if p.d1 <= p.d2 else 1
    off = p.d1 if peak == 2 else p.d2
    margins.append(_ref_rel(off, e["m_r"]))
    margins.append(_ref_rel(off, e["m_r"] + e["m_f"]))
    base = 1 if peak == 2 else 4
    cluster = base if off <= e["m_r"] else base + 1 if off <= e["m_r"] + e["m_f"] else base + 2
    gid = _LADDER_FALLBACK[cluster]
    for (lhs, rhs), g in _LADDERS[cluster]:
        lv, rv = e[lhs], _ref_eval(rhs, e)
        margins.append(_ref_rel(lv, rv))
        if lv <= rv:
            gid = g
            break
    margin = min(margins)
    return gid, margin <= tol_bound, margin


#: Equalities at the region edges: (symbol, expression it is set to).
#: Every ladder rung, every cluster edge, equal demands and empty periods.
TIES = (("cl", "t_sr"), ("cl", "t_sf"), ("cl", "t_r"), ("cl", "t_f"),
        ("d2", "d1 + m_r"), ("d2", "2*m_r"), ("d2", "2*m_r + m_f"),
        ("d2", "2*m_r + 2*m_f"), ("d2", "d1 + m_r + m_f"),
        ("d1", "m_r"), ("d1", "m_r + m_f"), ("d2", "m_r"), ("d2", "m_r + m_f"),
        ("d1", "d2"), ("d1", "0"), ("d2", "0"))

_FIELDS = ("ci_r", "cp_r", "m_r", "ci_f", "cp_f", "m_f", "cl", "d1", "d2")


def regime_style_params(seed, n):
    """n parameter sets on a strict cost ladder, every loadshed band and
    every off-peak band drawn equally often (as the regime map draws)."""
    rng = np.random.default_rng(seed)
    lo = np.log([5.0, 0.2, 5.0, 0.2])
    hi = np.log([120.0, 25.0, 240.0, 50.0])
    out = []
    while len(out) < n:
        ci_r, cp_r, ci_f, cp_f = np.exp(rng.uniform(lo, hi)).tolist()
        t = (ci_r / 2 + cp_r, ci_f / 2 + cp_f, ci_r + cp_r, ci_f + cp_f)
        if not (ci_r < ci_f and cp_r < cp_f and t[0] < t[1] < t[2] < t[3]):
            continue
        m_r, m_f = np.exp(rng.uniform(np.log(300.0), np.log(8000.0), 2)).tolist()
        edges = (0.5 * t[0], *t, 2.0 * t[3])
        band = int(rng.integers(5))
        cl = float(rng.uniform(edges[band], edges[band + 1]))
        cap = m_r + m_f
        off_lo, off_hi = ((0.0, m_r), (m_r, cap), (cap, 2.0 * cap))[int(rng.integers(3))]
        off = float(rng.uniform(off_lo, off_hi))
        peak = float(rng.uniform(off, 2.5 * cap))
        d1, d2 = (off, peak) if rng.random() < 0.5 else (peak, off)
        out.append(SystemParams.from_values(ci_r, cp_r, m_r, ci_f, cp_f, m_f, cl, d1, d2))
    return out


def _edge_points():
    """The 41 representatives and 20 regime-style draws, each with one
    symbol set exactly to one of TIES' expressions."""
    out = []
    for p in [representative_params(gid) for gid in range(1, 42)] + regime_style_params(11, 20):
        env = _ref_env(p)
        for sym, expr in TIES:
            values = {f: getattr(p, f) for f in _FIELDS}
            values[sym] = _ref_eval(expr, env)
            out.append(SystemParams.from_values(**values))
    return out


def test_compiled_table_matches_the_strings():
    from genmargin import groups
    from genmargin.sampling import random_params
    rng = np.random.default_rng(2718)
    inputs = ([representative_params(gid) for gid in range(1, 42)]
              + [random_params(rng) for _ in range(2000)] + _edge_points())
    ties = 0
    for params in inputs:
        env = _ref_env(params)
        for tol_bound in (None, 2e-5):
            got = classify(params, tol_bound=tol_bound)
            want = _ref_classify(params, Tolerances().bound if tol_bound is None else tol_bound)
            assert (got.gid, got.boundary, repr(got.margin)) == \
                (want[0], want[1], repr(want[2])), params
        g = classify(params)
        ties += g.margin == 0.0
        spec = groups.GROUPS[g.gid]
        want = [_ref_eval(s, env) for s in spec.invest + spec.shed + spec.lrmc]
        got = groups._GROUP_FNS[g.gid](*groups._values(params))
        assert [repr(v) for v in got] == [repr(v) for v in want], (g.gid, params)
        res = analytic_solution(params, g)
        got = (res.decision.i_r1, res.decision.i_r2, res.decision.i_f1,
               res.decision.i_f2, *res.lrmc)
        assert [repr(v) for v in got] == [repr(v) for v in want[:4] + want[6:]]
    assert ties > 500       # the edge points do sit exactly on an edge


def test_compiled_table_reaches_no_builtins():
    from genmargin import groups
    fns = list(groups._GROUP_FNS.values())
    fns += [rhs for rhs, _ in groups._RUNGS.values()]
    assert len(fns) == 41 + 6
    for fn in fns:
        assert fn.__globals__ == {"__builtins__": {}}


def closed_form_line(params):
    """Every figure of the closed-form route at ``params``, floats by repr."""
    from genmargin.pricing import (cost_recovery, group_orientation, investment_allocation,
                                   lrmc_profile_for_group, srmc_profile)
    parts = []
    try:
        g = classify(params)
        parts.append(f"{g.gid} {g.cluster} {g.peak_period} {g.boundary} {g.margin!r}")
        res = analytic_solution(params, g)
        d = res.decision
        parts.append(repr((d.i_r1, d.i_r2, d.i_f1, d.i_f2, d.p_r1, d.p_r2,
                           d.p_f1, d.p_f2, d.l_1, d.l_2)))
        parts.append(f"{res.lrmc!r} {res.profile_id} "
                     f"{[sorted(s) for s in used_options(params, d)]}")
        rec = cost_recovery(res.lrmc, res.decision, params)
        parts.append(f"{rec.revenue!r} {rec.total_cost!r} {rec.profit!r} {rec.recovered} "
                     f"{rec.revenue_by_period!r} {investment_allocation(params, d)!r}")
        short = srmc_profile(lrmc_profile_for_group(g.gid), params, group_orientation(g.gid))
        parts.append(f"{short.prices!r} {short.recovered}")
    except ValueError as exc:
        parts.append(f"{type(exc).__name__}: {exc}")
    return " | ".join(parts)


#: SHA-256 of ``closed_form_line`` over regime-style draws and the edge
#: points, made when the table was evaluated string by string per call
CLOSED_FORM_DIGEST = "76a60585e8b01f19ad441291cf0fbb693fb6307891e83e5a8676733177faf9f9"


def test_closed_form_route_is_pinned():
    h = hashlib.sha256()
    for params in regime_style_params(20241018, 1000) + _edge_points():
        h.update(closed_form_line(params).encode() + b"\n")
    assert h.hexdigest() == CLOSED_FORM_DIGEST
