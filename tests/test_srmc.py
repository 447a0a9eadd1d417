import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from genmargin import tolerances
from genmargin.groups import classify
from genmargin.lp import run_step
from genmargin.model import SystemParams, solve_lrmc
from genmargin.sampling import random_params
from genmargin.srmc import (
    SrmcError,
    compute_srmc,
    default_epsilon,
    predict_srmc_from_lrmc,
    resolved_step,
)


def canonical(cl=200.0, d1=2000.0, d2=8000.0):
    return SystemParams.from_values(60, 1, 3000, 82, 20, 4000, cl, d1, d2)


def srmc_for(params, **kw):
    lr = solve_lrmc(params)
    return compute_srmc(params, lr.decision, **kw)


class TestPredictRule:
    def test_interior_maps_to_cp(self):
        assert predict_srmc_from_lrmc(61.0, 1.0, 80.0) == 1.0

    def test_at_loadshed_cost(self):
        assert predict_srmc_from_lrmc(80.0, 1.0, 80.0) == 80.0

    def test_at_operating_cost(self):
        assert predict_srmc_from_lrmc(20.0, 20.0, 200.0) == 20.0

    def test_out_of_range_rejected(self):
        with pytest.raises(SrmcError):
            predict_srmc_from_lrmc(0.5, 1.0, 80.0)
        with pytest.raises(SrmcError):
            predict_srmc_from_lrmc(90.0, 1.0, 80.0)


class TestComputeSrmc:
    def test_group3_interval_and_resolution(self):
        params = canonical(cl=80.0, d2=4000.0)
        res = srmc_for(params)
        assert_allclose(res.intervals[0], (1.0, 80.0), atol=1e-7)
        assert_allclose(res.intervals[1], (1.0, 80.0), atol=1e-7)
        assert res.degenerate == (True, True)
        assert_allclose(res.resolved, (1.0, 1.0), atol=1e-9)
        assert res.rules == ("rule-CP", "rule-interior")

    def test_group1_full_shed(self):
        params = canonical(cl=20.0, d2=4000.0)
        res = srmc_for(params)
        assert_allclose(res.resolved, (20.0, 20.0), atol=1e-9)
        assert res.rules == ("rule-CL", "rule-CL")
        assert res.degenerate == (False, False)

    def test_group27_no_width_in_shed_period(self):
        params = canonical(cl=80.0, d1=4000.0, d2=2000.0)
        assert classify(params).gid == 27
        res = srmc_for(params)
        assert_allclose(res.resolved, (80.0, 1.0), atol=1e-9)
        # shedding pins the dual: the interval is the single point CL
        assert_allclose(res.intervals[0], (80.0, 80.0), atol=1e-9)
        assert res.rules == ("rule-CL", "rule-CP")

    def test_group6_canonical(self):
        res = srmc_for(canonical())
        assert_allclose(res.resolved, (1.0, 20.0), atol=1e-9)
        assert_allclose(res.intervals[1], (20.0, 200.0), atol=1e-7)
        assert res.rules == ("rule-CP", "rule-interior")

    def test_suboptimal_istar_rejected(self):
        params = canonical()
        with pytest.raises(SrmcError):
            compute_srmc(params, (0.0, 0.0, 0.0, 0.0))

    def test_nonpositive_epsilon_rejected(self):
        params = canonical()
        lr = solve_lrmc(params)
        with pytest.raises(SrmcError):
            compute_srmc(params, lr.decision, epsilon=0.0)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_epsilon_rejected(self, eps):
        params = canonical()
        lr = solve_lrmc(params)
        with pytest.raises(SrmcError, match="^epsilon must be positive and finite"):
            compute_srmc(params, lr.decision, epsilon=eps)

    @pytest.mark.parametrize("z_star", [math.nan, math.inf, -math.inf])
    def test_non_finite_long_run_optimum_rejected(self, z_star):
        # a NaN optimum once let a build that serves nothing pass as optimal
        params = canonical()
        message = f"^long-run optimum must be finite, got {z_star!r}$"
        for istar in ((0.0, 0.0, 0.0, 0.0), solve_lrmc(params).decision):
            with pytest.raises(SrmcError, match=message):
                compute_srmc(params, istar, lrmc_objective=z_star)
            with pytest.raises(SrmcError, match=message):
                run_step(resolved_step(params, istar, z_star))

    def test_non_optimal_perturbed_solve_rejected(self, monkeypatch):
        # At a zero feasibility tolerance, rounding in phase 1 leaves this
        # scenario's perturbed short-run model "infeasible".
        monkeypatch.setenv("GENMARGIN_TOL_FEAS", "0")
        tolerances.current.cache_clear()
        params = SystemParams.from_values(
            60.9875803789974, 0.2596926978866327, 396.44098394416386,
            106.41720281193204, 1.5365843432268265, 566.3508214013052,
            23.81210299785806, 1653.3868320306658, 244.07731151903116)
        with pytest.raises(SrmcError, match="^perturbed short-run model infeasible$"):
            srmc_for(params)


class TestResolvedStep:
    """``resolved_step``, the short-run stage of a ``sweep`` row, gives
    ``compute_srmc``'s resolved pair and rejects what it rejects."""

    def test_pair_equals_compute_srmc(self):
        # zero demands, every region edge of the README costs and
        # zero-investment frozen models
        grid = np.linspace(0.0, 14000.0, 15)
        unbuilt = 0
        for d1 in grid:
            for d2 in grid:
                params = canonical(d1=float(d1), d2=float(d2))
                lr = solve_lrmc(params)
                pair = run_step(resolved_step(params, lr.decision, lr.objective))
                assert repr(pair) == repr(compute_srmc(params, lr.decision).resolved), params
                unbuilt += not any((lr.decision.i_r1, lr.decision.i_r2,
                                    lr.decision.i_f1, lr.decision.i_f2))
        assert unbuilt > 0

    def test_suboptimal_istar_rejected_alike(self):
        params = canonical()
        istar = solve_lrmc(canonical(d2=4000.0)).decision
        z_star = solve_lrmc(params).objective
        with pytest.raises(SrmcError) as want:
            compute_srmc(params, istar)
        with pytest.raises(SrmcError) as got:
            run_step(resolved_step(params, istar, z_star))
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("istar is not an optimal investment plan")


class TestRandomizedAgreement:
    def test_rule_matches_perturbation(self):
        rng = np.random.default_rng(21)
        for _ in range(150):
            params = random_params(rng)
            res = srmc_for(params)
            for t in (0, 1):
                if res.marginal_cp[t] is None:
                    predicted = params.cl
                else:
                    predicted = predict_srmc_from_lrmc(
                        res.lrmc[t], res.marginal_cp[t], params.cl)
                assert abs(predicted - res.resolved[t]) <= 1e-6, \
                    f"gid {classify(params).gid} period {t+1}: " \
                    f"{predicted} vs {res.resolved[t]}"

    def test_srmc_never_above_lrmc(self):
        rng = np.random.default_rng(22)
        for _ in range(150):
            params = random_params(rng)
            res = srmc_for(params)
            assert res.resolved[0] <= res.lrmc[0] + 1e-6
            assert res.resolved[1] <= res.lrmc[1] + 1e-6

    def test_interval_law_for_interior_prices(self):
        rng = np.random.default_rng(23)
        seen = 0
        for _ in range(120):
            params = random_params(rng)
            res = srmc_for(params)
            for t in (0, 1):
                cp = res.marginal_cp[t]
                if cp is None:
                    continue
                if cp + 1e-6 < res.lrmc[t] < params.cl - 1e-6:
                    lo, hi = res.intervals[t]
                    assert abs(lo - cp) <= 1e-6 * (1 + abs(cp))
                    assert abs(hi - params.cl) <= 1e-6 * (1 + params.cl)
                    assert abs(res.resolved[t] - lo) <= 1e-6
                    seen += 1
        assert seen > 30

    def test_stability_under_smaller_epsilon(self):
        rng = np.random.default_rng(24)
        for _ in range(60):
            params = random_params(rng)
            lr = solve_lrmc(params)
            eps = default_epsilon(params)
            a = compute_srmc(params, lr.decision, epsilon=eps)
            b = compute_srmc(params, lr.decision, epsilon=eps / 10.0)
            assert_allclose(a.resolved, b.resolved, atol=1e-6)


class TestZeroDemandPeriods:
    # Empty periods make the balance dual set-valued in both models (its
    # objective coefficient is the demand itself), so they come back
    # boundary-flagged; the resolved price still lands on the cheapest
    # technology's operating cost, which is what serves the first unit
    # under the capacity-slack resolution.

    def test_flagged_as_boundary(self):
        for d1, d2 in ((0.0, 4000.0), (4000.0, 0.0)):
            params = SystemParams.from_values(60, 1, 3000, 70, 10, 4000,
                                              120, d1, d2)
            assert classify(params).boundary

    def test_first_unit_served_by_cheapest_technology(self):
        for d1, d2, want in (
            (0.0, 4000.0, (1.0, 1.0)),     # off-peak empty, renewable idles
            (4000.0, 0.0, (10.0, 1.0)),    # peak-only demand
        ):
            params = SystemParams.from_values(60, 1, 3000, 70, 10, 4000,
                                              120, d1, d2)
            res = srmc_for(params)
            assert_allclose(res.resolved, want, atol=1e-9)
            for t in (0, 1):
                cp = res.marginal_cp[t]
                predicted = params.cl if cp is None else \
                    predict_srmc_from_lrmc(res.lrmc[t], cp, params.cl)
                assert abs(predicted - res.resolved[t]) <= 1e-6

    def test_empty_period_interval_has_width(self):
        # the empty period's dual interval is unbounded below
        for d1, d2, t in ((0.0, 4000.0, 0), (4000.0, 0.0, 1)):
            params = SystemParams.from_values(60, 1, 3000, 70, 10, 4000,
                                              120, d1, d2)
            res = srmc_for(params)
            assert res.intervals[t][0] == -math.inf
            assert res.degenerate[t]

    def test_empty_period_with_no_build(self):
        # nothing affordable: the shed period prices at CL; the empty
        # period still resolves to the cheapest technology's slack
        params = SystemParams.from_values(60, 1, 3000, 70, 10, 4000,
                                          20, 0.0, 4000.0)
        res = srmc_for(params)
        assert_allclose(res.resolved, (1.0, 20.0), atol=1e-9)
        assert res.marginal_cp == (1.0, None)


class TestDispatchVersusInvestmentMargin:
    def test_group20_profile_table_differs_from_mechanism(self):
        # The published profile table writes the short-run price of a
        # non-shared-renewable margin as CP_r.  When fossil also runs in
        # that period, the perturbed model backs fossil off first, so the
        # resolved price is CP_f.  The mechanism wins; the profile-table
        # route keeps the published value.  Both are asserted so any change
        # in either route shows up here.
        from genmargin.groups import representative_params
        from genmargin.pricing import (group_orientation,
                                       lrmc_profile_for_group, srmc_profile)
        params = representative_params(20)
        res = srmc_for(params)
        assert_allclose(res.resolved[1], params.cp_f, atol=1e-9)
        table = srmc_profile(lrmc_profile_for_group(20), params,
                             group_orientation(20))
        assert_allclose(table.prices[1], params.cp_r)
        assert params.cp_f != params.cp_r
