import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from genmargin.groups import GROUPS, analytic_solution, classify
from genmargin.model import SystemParams, solve_lrmc
from genmargin.pricing import (
    LrmcProfile,
    PricingError,
    ZERO_RENT_GROUPS,
    cost_recovery,
    group_orientation,
    investment_allocation,
    lrmc_profile_for_group,
    sales,
    srmc_profile,
)
from genmargin.sampling import random_params


def canonical(cl=200.0, d1=2000.0, d2=8000.0):
    return SystemParams.from_values(60, 1, 3000, 82, 20, 4000, cl, d1, d2)


def analytic_for(params):
    return analytic_solution(params, classify(params))


class TestProfilePrices:
    def test_fixed_order_profiles_reject_flip(self):
        with pytest.raises(PricingError):
            srmc_profile(LrmcProfile(7, "rf", True), canonical(), orientation=2)

    def test_seven_profiles_cover_the_group_table(self):
        # Each group's long-run pair, put in its profile's order and written
        # in its marginal technology g, is one of seven: one per profile.
        # The fixed-order profiles 5 and 7 occur only in that order.
        pairs = {}
        for spec in GROUPS.values():
            pair = spec.lrmc if spec.orientation == 1 else spec.lrmc[::-1]
            if spec.profile_tech:
                pair = tuple(re.sub(rf"_{spec.profile_tech}\b", "_g", f) for f in pair)
            pairs.setdefault(spec.profile_id, set()).add(pair)
            if spec.profile_id in (5, 7):
                assert spec.orientation == 1, f"group {spec.gid}"
        assert sorted(pairs) == list(range(1, 8))
        assert all(len(p) == 1 for p in pairs.values()), pairs
        assert len(set.union(*pairs.values())) == 7


class TestSrmcProfile:
    def test_profile3_not_recovered(self):
        params = canonical(cl=80.0, d2=4000.0)
        out = srmc_profile(LrmcProfile(3, "r", False), params, orientation=1)
        assert_allclose(out.prices, (1.0, 1.0))
        assert not out.recovered

    def test_profile1_recovered(self):
        out = srmc_profile(LrmcProfile(1, "", False), canonical(cl=20.0), 1)
        assert_allclose(out.prices, (20.0, 20.0))
        assert out.recovered

    def test_profile6_canonical(self):
        out = srmc_profile(LrmcProfile(6, "rf", False), canonical(), orientation=1)
        assert_allclose(out.prices, (1.0, 20.0))
        assert not out.recovered


class TestCostRecovery:
    def test_group3_exact_recovery(self):
        params = canonical(cl=80.0, d2=4000.0)
        res = analytic_for(params)
        rep = cost_recovery(res.lrmc, res.decision, params)
        assert_allclose(rep.revenue, 246000.0)
        assert_allclose(rep.total_cost, 246000.0)
        assert_allclose(rep.profit, 0.0, atol=1e-9)
        assert rep.recovered

    def test_group6_profit_formula(self):
        # D_o*(F - R) + N*(F - R) with D_o = 2000, N = 4000, F - R = 41
        params = canonical()
        res = analytic_for(params)
        rep = cost_recovery(res.lrmc, res.decision, params)
        assert_allclose(res.lrmc, (1.0, 102.0))
        assert_allclose(rep.profit, 246000.0)

    def test_zero_demand_zero_profit(self):
        params = canonical(d1=0.0, d2=0.0)
        lr = solve_lrmc(params)
        rep = cost_recovery((5.0, 7.0), lr.decision, params)
        assert_allclose(rep.profit, 0.0, atol=1e-12)

    def test_infeasible_decision_rejected(self):
        params = canonical()
        res = analytic_for(canonical(d2=7000.0))
        with pytest.raises(PricingError):
            cost_recovery((1.0, 1.0), res.decision, params)
        with pytest.raises(PricingError):
            sales([(1.0, 1.0)], res.decision, params)

    def test_sales_are_cost_recovery_figures(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            params = random_params(rng)
            res = analytic_for(params)
            pairs = (res.lrmc, (params.cp_r, params.cl), (0.0, -1.5))
            total_cost, sold = sales(pairs, res.decision, params)
            assert total_cost == res.decision.total_cost(params)
            assert sold == tuple(
                (rep.revenue_by_period, rep.revenue, rep.profit)
                for rep in (cost_recovery(p, res.decision, params) for p in pairs))
            assert [profit for *_, profit in sold] == [
                params.d1 * p1 + params.d2 * p2 - total_cost for p1, p2 in pairs]

    def test_srmc_profile3_missing_money(self):
        # at short-run prices profile 3 loses exactly D_p * CI_g on the
        # single-technology groups
        params = canonical(cl=80.0, d2=4000.0)
        res = analytic_for(params)
        out = srmc_profile(lrmc_profile_for_group(3), params, group_orientation(3))
        rep = cost_recovery(out.prices, res.decision, params)
        assert_allclose(rep.profit, -4000.0 * 60.0)
        assert not rep.recovered


class TestAllocation:
    def test_profile3_all_to_peak(self):
        params = canonical(cl=80.0, d2=4000.0)
        res = analytic_for(params)
        allocation = investment_allocation(params, res.decision)
        assert len(allocation) == 1
        a = allocation[0]
        assert a.tech == "r" and a.rule == "all-to-peak"
        assert_allclose((a.peak_share, a.offpeak_share), (60.0, 0.0))

    def test_loadshed_split_when_invest_cost_exceeds_cl(self):
        # group 2 with CL below CI_r: the peak can only absorb CL
        params = canonical(cl=40.0, d2=4000.0)
        res = analytic_for(params)
        assert res.profile_id == 2
        a = investment_allocation(params, res.decision)[0]
        assert a.rule == "split"
        assert_allclose((a.peak_share, a.offpeak_share), (40.0, 20.0))

    def test_shares_sum_to_invest_cost_randomized(self):
        rng = np.random.default_rng(12)
        for _ in range(120):
            params = random_params(rng)
            res = analytic_for(params)
            for a in investment_allocation(params, res.decision):
                assert_allclose(a.peak_share + a.offpeak_share, a.invest_cost,
                                rtol=1e-12)
                assert a.peak_share >= 0 and a.offpeak_share >= 0


class TestRecoveryTheorems:
    def test_lrmc_recovery_randomized(self):
        # profit at the long-run prices equals the total opportunity-cost
        # rent: nonnegative always, zero exactly on single-technology groups
        rng = np.random.default_rng(13)
        zero_seen = positive_seen = 0
        for _ in range(300):
            params = random_params(rng)
            g = classify(params)
            res = analytic_solution(params, g)
            rep = cost_recovery(res.lrmc, res.decision, params)
            assert rep.profit >= -1e-6
            lr = solve_lrmc(params)
            rent = sum(
                params.m(gg) * lr.duals.gamma(gg, t)
                for gg in ("r", "f") for t in (1, 2)
            )
            assert abs(rep.profit - rent) <= 1e-6 * (1 + abs(rep.profit))
            if g.gid in ZERO_RENT_GROUPS:
                assert abs(rep.profit) <= 1e-6, f"group {g.gid}"
                zero_seen += 1
            elif res.profile_id in (4, 5, 6, 7):
                assert rep.profit > 1e-9, f"group {g.gid}"
                positive_seen += 1
        assert zero_seen > 10 and positive_seen > 10

    def test_multi_tech_profile2_earns_rent(self):
        # group 13 carries positive rent even though its profile's
        # single-technology algebra balances to zero
        params = SystemParams.from_values(60, 1, 3000, 82, 20, 4000,
                                          cl=80, d1=4000, d2=9000)
        g = classify(params)
        assert g.gid == 13
        res = analytic_solution(params, g)
        assert res.profile_id == 2
        rep = cost_recovery(res.lrmc, res.decision, params)
        assert_allclose(rep.profit, 237000.0)

    def test_srmc_dominance_randomized(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            params = random_params(rng)
            g = classify(params)
            res = analytic_solution(params, g)
            out = srmc_profile(lrmc_profile_for_group(g.gid), params,
                               group_orientation(g.gid))
            assert out.prices[0] <= res.lrmc[0] + 1e-6
            assert out.prices[1] <= res.lrmc[1] + 1e-6

    def test_srmc_recovery_flag_and_numbers(self):
        # flag tracks the profile pair; numerically confirmed: profiles
        # 1 and 4 recover everywhere, and on single-technology groups the
        # other profiles strictly miss money
        rng = np.random.default_rng(15)
        for _ in range(250):
            params = random_params(rng)
            g = classify(params)
            res = analytic_solution(params, g)
            out = srmc_profile(lrmc_profile_for_group(g.gid), params,
                               group_orientation(g.gid))
            rep = cost_recovery(out.prices, res.decision, params)
            assert out.recovered == (res.profile_id in (1, 4))
            if out.recovered:
                assert rep.profit >= -1e-6
            elif g.gid in ZERO_RENT_GROUPS:
                assert rep.profit < -1e-6, f"group {g.gid}"
            if res.profile_id == 3:
                # profit = rent - D_peak * CI_g, exactly
                d_p = max(params.d1, params.d2)
                ci_g = params.ci(lrmc_profile_for_group(g.gid).marginal_tech)
                rep_l = cost_recovery(res.lrmc, res.decision, params)
                assert abs(rep.profit - (rep_l.profit - d_p * ci_g)) <= \
                    1e-6 * (1 + abs(rep.profit))

    def test_srmc_recovery_counterexample_multi_tech(self):
        # a profile-2 instance whose rents outweigh the short-run discount:
        # the numeric profit is positive even though the profile flag says
        # no recovery (the flag reflects the single-technology algebra)
        params = SystemParams.from_values(60, 1, 3000, 82, 20, 4000,
                                          cl=80, d1=4000, d2=9000)
        g = classify(params)
        assert g.gid == 13
        res = analytic_solution(params, g)
        out = srmc_profile(lrmc_profile_for_group(13), params, group_orientation(13))
        rep = cost_recovery(out.prices, res.decision, params)
        assert not out.recovered
        assert rep.profit > 0
        assert_allclose(rep.profit, 149000.0)
