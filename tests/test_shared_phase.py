"""Shared phase 1: several objectives over one region, bit for bit.

Every result of ``solve_objectives`` and ``dual_value_ranges`` must equal
what separate one-objective solves give, down to the last bit of every
array and the pivot count.
"""

import dataclasses
import math

import numpy as np
import pytest

from genmargin.lp import (
    EQ,
    LinearProgram,
    LpInputError,
    _min_form,
    dual_value_range,
    dual_value_ranges,
    explicit_dual,
    solve_lp,
    solve_objectives,
)
from genmargin.model import SystemParams, build_lrmc_primal, build_srmc_primal, solve_lrmc
from genmargin.sampling import random_params

CANONICAL = dict(ci_r=60, cp_r=1, m_r=3000, ci_f=82, cp_f=20, m_f=4000, cl=200, d1=2000)
#: the demands at which the canonical d2 sweep sits exactly on a region edge
BOUNDARY_D2 = (2000.0, 5000.0, 6000.0, 10000.0, 14000.0)


def scenarios():
    rng = np.random.default_rng(2024)
    draws = [random_params(rng) for _ in range(200)]
    return draws + [SystemParams.from_values(**CANONICAL, d2=d2) for d2 in BOUNDARY_D2]


def assert_identical(got, want):
    assert got.status == want.status
    assert got.iterations == want.iterations
    assert got.basis == want.basis
    assert got.objective == want.objective
    for field in ("x", "duals", "reduced_costs"):
        a, b = getattr(got, field), getattr(want, field)
        assert (a is None and b is None) or np.array_equal(a, b), field


def separately(problem, objectives):
    return [solve_lp(dataclasses.replace(problem, sense=sense, c=c))
            for sense, c in objectives]


def tie_break(problem):
    """The long-run objective and its deferred-investment tie-break."""
    c2 = problem.c.copy()
    mu = 1e-9 * (1.0 + float(np.abs(problem.c).max()))
    c2[[0, 2]] += mu
    return [("min", problem.c), ("min", c2)]


def one_row_range(problem, row, solution):
    """One row's dual interval from two separate ``solve_lp`` calls: the
    algorithm of ``dual_value_range`` before its sub-LPs shared a phase 1."""
    p_min = _min_form(problem)
    z_struct = solution.objective - problem.objective_offset - p_min.objective_offset
    dual, signs = explicit_dual(p_min)
    idx = problem.row_index(row)
    obj = np.zeros(p_min.n_rows)
    obj[idx] = signs[idx]
    bounds = []
    for sense, unbounded in (("min", -math.inf), ("max", math.inf)):
        sub = LinearProgram(sense=sense, c=obj, A=np.vstack([dual.A, dual.c]),
                            relations=dual.relations + (EQ,),
                            b=np.concatenate([dual.b, [z_struct]]),
                            lower_bounds=dual.lower_bounds)
        s = solve_lp(sub)
        bounds.append(unbounded if s.status == "unbounded" else s.objective)
    return tuple(bounds)


def test_model_lps_match_separate_solves():
    for params in scenarios():
        primal = build_lrmc_primal(params)
        objectives = tie_break(primal)
        shared = solve_objectives(primal, objectives)
        for got, want in zip(shared, separately(primal, objectives)):
            assert_identical(got, want)

        lr = solve_lrmc(params)
        assert_identical(lr.lp_solution, solve_lp(primal))
        frozen = build_srmc_primal(params, lr.decision)
        for problem, solution in ((primal, lr.lp_solution), (frozen, solve_lp(frozen))):
            rows = problem.row_labels[:4]       # both balance rows, two cap rows
            ranges = dual_value_ranges(problem, rows, solution=solution)
            assert ranges == tuple(dual_value_range(problem, r, solution=solution)
                                   for r in rows), params
            assert ranges == tuple(one_row_range(problem, r, solution) for r in rows), params


def test_dual_range_region_matches_separate_solves():
    params = SystemParams.from_values(**CANONICAL, d2=6000.0)      # boundary
    primal = build_lrmc_primal(params)
    p_min = _min_form(primal)
    dual, signs = explicit_dual(p_min)
    z = solve_lp(primal).objective
    region = LinearProgram(sense="min", c=np.zeros(10), A=np.vstack([dual.A, dual.c]),
                           relations=dual.relations + (EQ,),
                           b=np.concatenate([dual.b, [z]]), lower_bounds=dual.lower_bounds)
    objectives = []
    for i in range(10):
        obj = np.zeros(10)
        obj[i] = signs[i]
        objectives += [("min", obj), ("max", obj)]
    shared = solve_objectives(region, objectives)
    for got, want in zip(shared, separately(region, objectives)):
        assert_identical(got, want)
    assert any(s.iterations > shared[0].iterations for s in shared)


def test_infeasible_region_fails_every_objective():
    # x + y = 1 and x + y >= 2 cannot both hold
    p = LinearProgram(sense="min", c=[1.0, 0.0], A=[[1, 1], [1, 1]],
                      relations=("=", ">="), b=[1.0, 2.0])
    objectives = [("min", [1.0, 0.0]), ("max", [0.0, 1.0]), ("min", [-1.0, 2.0])]
    shared = solve_objectives(p, objectives)
    assert [s.status for s in shared] == ["infeasible"] * 3
    for got, want in zip(shared, separately(p, objectives)):
        assert_identical(got, want)


def test_unbounded_and_optimal_objectives_share_phase_one():
    # x + y >= 1, x - y = 0: maximizing x is unbounded, minimizing is not
    p = LinearProgram(sense="min", c=[0.0, 0.0], A=[[1, 1], [1, -1]],
                      relations=(">=", "="), b=[1.0, 0.0])
    objectives = [("max", [1.0, 0.0]), ("min", [1.0, 0.0])]
    shared = solve_objectives(p, objectives)
    assert [s.status for s in shared] == ["unbounded", "optimal"]
    for got, want in zip(shared, separately(p, objectives)):
        assert_identical(got, want)


def test_objectives_that_price_phase_one_differently_are_solved_apart():
    # Phase 1 prices x at -1e-5: eligible to enter under the first
    # objective's tolerance (2e-9), not under the second's (about 1e-3).
    p = LinearProgram(sense="min", c=[0.0, 0.0], A=[[1e-5, 1.0]],
                      relations=("=",), b=[1.0])
    objectives = [("min", [1.0, 1.0]), ("min", [1e6, 1.0])]
    shared = solve_objectives(p, objectives)
    want = separately(p, objectives)
    assert want[0].iterations != want[1].iterations     # different phase-1 pivots
    for got, w in zip(shared, want):
        assert_identical(got, w)


def test_random_lps_match_separate_solves():
    rng = np.random.default_rng(11)
    for _ in range(150):
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        A = np.vstack([np.round(rng.uniform(-2, 2, size=(m, n)), 1), np.eye(n)])
        rel = tuple(rng.choice(["<=", "=", ">="], size=m)) + ("<=",) * n
        b = np.concatenate([np.round(rng.uniform(-2, 3, size=m), 1),
                            rng.uniform(1, 4, size=n)])
        lb = np.where(rng.uniform(size=n) < 0.3, -np.inf, 0.0)
        p = LinearProgram(sense="min", c=np.zeros(n), A=A, relations=rel, b=b,
                          lower_bounds=lb, objective_offset=2.5)
        objectives = [(str(rng.choice(["min", "max"])), np.round(rng.uniform(-2, 2, size=n), 1))
                      for _ in range(3)]
        for got, want in zip(solve_objectives(p, objectives), separately(p, objectives)):
            assert_identical(got, want)


@pytest.mark.parametrize("objectives", [
    [],
    [("min", [1.0, 1.0]), ("maximize", [1.0, 1.0])],
    [("min", [1.0])],
    [("max", [1.0, math.inf])],
])
def test_malformed_objectives_rejected(objectives):
    p = LinearProgram(sense="min", c=[0.0, 0.0], A=[[1.0, 1.0]],
                      relations=("<=",), b=[1.0])
    with pytest.raises(LpInputError):
        solve_objectives(p, objectives)
