import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from genmargin.groups import analytic_solution, classify
from genmargin.lp import solve_lp
from genmargin.model import (
    SystemParams,
    build_lrmc_primal,
    extract_decision,
    extract_duals,
    solve_lrmc,
)
from genmargin.sampling import random_params
from genmargin.verify import check_complementary_slackness, cross_check


def canonical(cl=200.0, d1=2000.0, d2=8000.0):
    return SystemParams.from_values(60, 1, 3000, 82, 20, 4000, cl, d1, d2)


class TestSlackness:
    def solve(self, params):
        sol = solve_lp(build_lrmc_primal(params))
        return extract_decision(sol), extract_duals(sol)

    def test_group3_solver_output_passes(self):
        params = canonical(cl=80.0, d2=4000.0)
        rep = check_complementary_slackness(*self.solve(params), params)
        assert rep.passed
        assert rep.max_residual <= 1e-8

    def test_zero_demand_all_zero(self):
        params = canonical(d1=0.0, d2=0.0)
        rep = check_complementary_slackness(*self.solve(params), params)
        assert rep.max_residual == 0.0

    def test_corrupted_dual_fails(self):
        params = canonical(cl=80.0, d2=4000.0)
        decision, duals = self.solve(params)
        bad = dataclasses.replace(duals, lam_1=duals.lam_1 + 1.0)
        rep = check_complementary_slackness(decision, bad, params)
        assert not rep.passed

    def test_passes_on_every_optimal_solve(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            params = random_params(rng)
            rep = check_complementary_slackness(*self.solve(params), params)
            assert rep.passed, f"residual {rep.max_residual}"


class TestCrossCheck:
    def test_canonical_group6_passes(self):
        rep = cross_check(canonical())
        assert rep.passed, rep.failures()
        assert rep.gid == 6

    def test_group1_objective_is_shed_cost(self):
        rep = cross_check(canonical(cl=20.0, d2=4000.0))
        assert rep.passed
        assert_allclose(rep.objective_lp, 20.0 * (2000 + 4000))
        assert_allclose(rep.objective_analytic, rep.objective_lp)

    def test_boundary_downgrades_to_containment(self):
        rep = cross_check(canonical(d2=6000.0))   # exactly 2*m_r
        assert rep.boundary
        names = [c.name for c in rep.checks]
        assert "lambda-containment" in names and "lambda-agreement" not in names
        assert rep.passed, rep.failures()

    def test_randomized_no_disagreements(self):
        rng = np.random.default_rng(32)
        for _ in range(150):
            params = random_params(rng)
            rep = cross_check(params)
            assert rep.passed, (params, rep.failures())

    def test_shared_long_run_solve_gives_the_same_report(self):
        for params in (canonical(), canonical(d2=6000.0), canonical(cl=20.0, d2=4000.0)):
            assert cross_check(params, lrmc=solve_lrmc(params)) == cross_check(params)

    def test_report_carries_the_closed_form_it_checked(self):
        rng = np.random.default_rng(5)
        draws = [random_params(rng) for _ in range(20)]
        for params in draws + [canonical(), canonical(d2=6000.0), canonical(d1=0.0)]:
            assert cross_check(params).analytic == analytic_solution(params, classify(params))

    def test_long_run_solve_of_other_params_rejected(self):
        with pytest.raises(ValueError, match="other parameters"):
            cross_check(canonical(), lrmc=solve_lrmc(canonical(d2=7000.0)))
