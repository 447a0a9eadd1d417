"""Property suites driven by hypothesis.

Parameter sets come from the package's own rejection sampler, seeded by a
hypothesis-drawn integer, so shrinking works on the seed while every draw
respects the model's standing assumptions.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from genmargin.groups import GROUPS, analytic_solution, classify
from genmargin.lp import LinearProgram, solve_lp
from genmargin.model import SystemParams, build_lrmc_dual, build_lrmc_primal, solve_lrmc
from genmargin.sampling import random_params

from lp_oracle import brute_force_solve
from model_vectors import max_dual_violation

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def params_from_seed(seed):
    return random_params(np.random.default_rng(seed))


@given(seeds)
@settings(max_examples=150, deadline=None)
def test_classify_predicates_hold_on_match(seed):
    params = params_from_seed(seed)
    group = classify(params)
    spec = GROUPS[group.gid]
    env = {
        "d1": params.d1, "d2": params.d2, "m_r": params.m_r, "m_f": params.m_f,
        "cl": params.cl,
        "t_sr": params.ci_r / 2 + params.cp_r,
        "t_sf": params.ci_f / 2 + params.cp_f,
        "t_r": params.ci_r + params.cp_r,
        "t_f": params.ci_f + params.cp_f,
    }
    for cond in spec.conditions:
        assert eval(cond, {"__builtins__": {}}, env), \
            f"group {group.gid}: {cond} fails"


@given(seeds)
@settings(max_examples=120, deadline=None)
def test_analytic_objective_matches_lp(seed):
    params = params_from_seed(seed)
    res = analytic_solution(params, classify(params))
    z = solve_lp(build_lrmc_primal(params)).objective
    assert abs(res.decision.total_cost(params) - z) <= 1e-8 * (1 + abs(z))


@given(seeds)
@settings(max_examples=120, deadline=None)
def test_strong_duality_both_models(seed):
    params = params_from_seed(seed)
    zp = solve_lp(build_lrmc_primal(params)).objective
    zd = solve_lp(build_lrmc_dual(params)).objective
    assert abs(zp - zd) <= 1e-8 * (1 + abs(zp))


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_decision_invariants_roundtrip(seed):
    params = params_from_seed(seed)
    lr = solve_lrmc(params)
    assert lr.decision.is_feasible(params)
    assert max_dual_violation(lr.duals, params) <= 1e-6


@given(seeds, st.floats(min_value=0.01, max_value=0.5))
@settings(max_examples=60, deadline=None)
def test_lrmc_objective_monotone_in_demand(seed, bump):
    params = params_from_seed(seed)
    z = solve_lrmc(params).objective
    grown = SystemParams.from_values(
        params.ci_r, params.cp_r, params.m_r, params.ci_f, params.cp_f,
        params.m_f, params.cl, params.d1 * (1 + bump), params.d2 * (1 + bump))
    z2 = solve_lrmc(grown).objective
    assert z2 >= z - 1e-7 * (1 + abs(z))


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_solver_against_vertex_enumeration(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 4))
    n = int(rng.integers(1, 4))
    A = np.vstack([np.round(rng.uniform(-2, 3, size=(m, n)), 2), np.eye(n)])
    rel = ("<=",) * (m + n)
    b = np.concatenate([np.round(rng.uniform(-1, 4, size=m), 2),
                        rng.uniform(1, 5, size=n)])
    c = np.round(rng.uniform(-3, 3, size=n), 2)
    p = LinearProgram(sense="min", c=c, A=A, relations=rel, b=b)
    sol = solve_lp(p)
    status, obj, _ = brute_force_solve(c, A, rel, b)
    assert sol.status == status
    if status == "optimal":
        assert_allclose(sol.objective, obj, rtol=1e-8, atol=1e-8)
        assert abs(sol.objective - b @ sol.duals) <= 1e-8 * (1 + abs(sol.objective))
