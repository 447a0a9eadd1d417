import numpy as np
import pytest
from numpy.testing import assert_allclose

from genmargin.groups import (
    CLUSTER_RANGES,
    ClassificationError,
    analytic_solution,
    classify,
    generating_options,
    marginal_cp,
    option_cost,
    representative_params,
    table_csv,
)
from genmargin.model import SystemParams, solve_lrmc


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
            assert gid in CLUSTER_RANGES[g.cluster]
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
            assert res.used_options == (frozenset(p1), frozenset(p2)), f"group {gid}"

    def test_affordability_consistency(self):
        for gid in range(1, 42):
            params = representative_params(gid)
            res = analytic_solution(params, classify(params))
            # every option in use costs less per unit than shedding
            for o in res.used_options[0] | res.used_options[1]:
                assert option_cost(o, params) < params.cl, f"group {gid}: {o}"

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
            lr = solve_lrmc(params, canonical=False)
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
            lr = solve_lrmc(params, canonical=False)
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
