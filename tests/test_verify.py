import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from genmargin import verify
from genmargin.groups import analytic_solution, classify
from genmargin.lp import solve_lp
from genmargin.model import (
    VAR_ORDER,
    DualValues,
    PrimalDecision,
    SystemParams,
    build_lrmc_dual,
    build_lrmc_primal,
    extract_decision,
    extract_duals,
    solve_lrmc,
)
from genmargin.sampling import random_params
from genmargin.verify import check_complementary_slackness, cross_check


def canonical(cl=200.0, d1=2000.0, d2=8000.0):
    return SystemParams.from_values(60, 1, 3000, 82, 20, 4000, cl, d1, d2)


#: Each of the twenty pairings as the only nonzero product at the README
#: costs and demands: ``(decision entry set to 1, dual entry and value or
#: None, the pair's (slack, dual))``.  A capacity row's pairing needs its
#: generation's dual row balanced, so its ``beta`` is ``-cp``.
PAIRINGS = [
    ("p_r1", None, (1.0, -1.0)), ("p_r2", None, (1.0, -1.0)),
    ("p_f1", None, (1.0, -20.0)), ("p_f2", None, (1.0, -20.0)),
    ("i_r1", None, (1.0, -60.0)), ("i_r2", None, (1.0, -60.0)),
    ("i_f1", None, (1.0, -82.0)), ("i_f2", None, (1.0, -82.0)),
    ("l_1", None, (1.0, -200.0)), ("l_2", None, (1.0, -200.0)),
    (None, ("lam_1", 1.0), (-2000.0, 1.0)), (None, ("lam_2", 1.0), (-8000.0, 1.0)),
    ("p_r1", ("beta_r1", -1.0), (-1.0, -1.0)), ("p_r2", ("beta_r2", -1.0), (-1.0, -1.0)),
    ("p_f1", ("beta_f1", -20.0), (-1.0, -20.0)), ("p_f2", ("beta_f2", -20.0), (-1.0, -20.0)),
    (None, ("gamma_r1", 1.0), (3000.0, 1.0)), (None, ("gamma_r2", 1.0), (3000.0, 1.0)),
    (None, ("gamma_f1", 1.0), (4000.0, 1.0)), (None, ("gamma_f2", 1.0), (4000.0, 1.0)),
]


class TestSlackness:
    @pytest.mark.parametrize("entry, dual, pair", PAIRINGS,
                             ids=[f"{e or '-'}-{d[0] if d else '-'}" for e, d, _ in PAIRINGS])
    def test_each_pairing_fails_alone(self, entry, dual, pair):
        decision = PrimalDecision(*[1.0 if name.lower() == entry else 0.0 for name in VAR_ORDER])
        duals = DualValues(*[0.0] * 10)
        if dual is not None:
            duals = dataclasses.replace(duals, **dict([dual]))
        s, y = pair
        rep = check_complementary_slackness(decision, duals, canonical())
        assert not rep.passed
        assert rep.max_residual == abs(s * y) / ((1.0 + abs(s)) * (1.0 + abs(y)))

    def test_all_zero_products_pass(self):
        rep = check_complementary_slackness(PrimalDecision(*[0.0] * 10),
                                            DualValues(*[0.0] * 10), canonical())
        assert rep.passed and rep.max_residual == 0.0


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

    def test_off_dual_objective_fails_strong_duality(self, monkeypatch):
        # the explicit dual of a demand one unit higher in period 1
        monkeypatch.setattr(verify, "build_lrmc_dual", lambda params: build_lrmc_dual(
            dataclasses.replace(params, d1=params.d1 + 1.0)))
        for params in (canonical(), canonical(d2=6000.0)):
            rep = cross_check(params)
            assert [c.name for c in rep.failures()] == ["strong-duality"]
            assert rep.objective_dual == pytest.approx(rep.objective_lp + rep.lambda_lp[0])

    def test_price_outside_the_lp_interval_fails_containment(self, monkeypatch):
        params = canonical(d2=6000.0)   # exactly 2*m_r
        interval = cross_check(params).checks[-2].detail
        assert interval == "t1: 1 in [1, 1]; t2: 61 in [61, 102]"
        for lrmc in ((1.0 + 1e-3, 61.0), (1.0, 102.0 + 1e-3), (1.0, 61.0 - 1e-3)):
            monkeypatch.setattr(verify, "analytic_solution", lambda p, g, lrmc=lrmc: (
                dataclasses.replace(analytic_solution(p, g), lrmc=lrmc)))
            rep = cross_check(params)
            assert rep.boundary
            assert [c.name for c in rep.failures()] == ["lambda-containment"]

    def test_long_run_solve_of_other_params_rejected(self):
        with pytest.raises(ValueError, match="other parameters"):
            cross_check(canonical(), lrmc=solve_lrmc(canonical(d2=7000.0)))
