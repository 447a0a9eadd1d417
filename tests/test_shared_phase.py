"""Shared phase 1 and stacked solves: the same LP results, bit for bit.

Every result of ``solve_objectives`` must equal what separate
one-objective solves give, and every outcome of ``solve_stacked`` what
``solve_objectives`` gives for that request alone, down to the last bit
of every array (signed zeros included) and the pivot count.  Every
interval of ``dual_value_ranges`` must equal the one-row result bit for
bit, and the pinned dual region's (``lp_oracle.region_ranges``, pivoted
by separate solves) within 1e-9 relative.
"""

import dataclasses
import math

import numpy as np
import pytest

from genmargin import lp
from genmargin.lp import (
    EQ,
    IterationLimitError,
    LinearProgram,
    LpInputError,
    LpRequest,
    dual_value_range,
    dual_value_ranges,
    solve_lp,
    solve_objectives,
    solve_stacked,
)
from genmargin.model import (
    SystemParams,
    build_lrmc_primal,
    build_srmc_primal,
    lrmc_step,
    solve_lrmc,
)
from genmargin.sampling import random_params
from genmargin.srmc import default_epsilon, srmc_step

from lp_oracle import explicit_dual, min_form, pinned_region, region_ranges, same_ends

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
        assert (a is None and b is None) or (
            a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()), field


def separately(problem, objectives):
    return [solve_lp(dataclasses.replace(problem, sense=sense, c=c))
            for sense, c in objectives]


def tie_break(problem):
    """The long-run objective and a second one that costs each period-1
    build a little more, so two objectives over one phase 1."""
    c2 = problem.c.copy()
    mu = 1e-9 * (1.0 + float(np.abs(problem.c).max()))
    c2[[0, 2]] += mu
    return [("min", problem.c), ("min", c2)]


def one_row_range(problem, row, solution):
    """One row's dual interval from two separate ``solve_lp`` calls over
    the pinned dual region, written out through ``min_form`` and
    ``explicit_dual``."""
    p_min = min_form(problem)
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
            assert same_ends(ranges, [one_row_range(problem, r, solution) for r in rows]), params


def test_dual_range_region_matches_separate_solves():
    params = SystemParams.from_values(**CANONICAL, d2=6000.0)      # boundary
    primal = build_lrmc_primal(params)
    p_min = min_form(primal)
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


def lp_fields(p):
    """Every field of an LP, arrays byte for byte (dtype and shape too)."""
    return (p.sense, p.relations, p.var_labels, p.row_labels, p.objective_offset,
            *[(a.dtype, a.shape, a.tobytes()) for a in (p.c, p.A, p.b, p.lower_bounds)])


def reference_region(problem, z_min):
    """``(region, signs)`` built through ``min_form`` and ``explicit_dual``:
    the dual region pinned at ``z_min``, the optimal value of ``min_form(
    problem)``."""
    p_min = min_form(problem)
    dual, signs = explicit_dual(p_min)
    region = LinearProgram(sense="min", c=np.zeros(p_min.n_rows),
                           A=np.vstack([dual.A, dual.c]), relations=dual.relations + (EQ,),
                           b=np.concatenate([dual.b, [z_min - p_min.objective_offset]]),
                           lower_bounds=dual.lower_bounds)
    return region, signs


def test_dual_range_region_is_built_straight_from_the_problem():
    # the long-run, frozen and perturbed LPs of the scenarios, and every
    # optimal objective of the random LPs, minimized or maximized, each
    # with how far the region's ends may stray: its pinned row holds the
    # dual objective only within feas (1 + max|b|), and a perturbed LP's
    # capacities sit epsilon above their use, so its region's ends spread
    # by up to 2.1e-8 where the basis gives a point
    cases = []
    for params in scenarios():
        lr = solve_lrmc(params)
        cases.append((build_lrmc_primal(params), lr.lp_solution, 1e-9))
        for eps, rel in ((0.0, 1e-9), (default_epsilon(params), 1e-7)):
            short = build_srmc_primal(params, lr.decision, epsilon=eps)
            cases.append((short, solve_lp(short), rel))
    for p, objectives in random_lps() + random_lps(seed=12):
        for sense, c in objectives:
            problem = dataclasses.replace(p, sense=sense, c=c)
            solution = solve_lp(problem)
            if solution.optimal:
                cases.append((problem, solution, 1e-9))
    assert {p.sense for p, *_ in cases} == {"min", "max"}
    for problem, solution, rel in cases:
        rows = range(problem.n_rows)
        z_min = solution.objective - problem.objective_offset
        if problem.sense == "max":
            z_min = -z_min
        # the range request carries the optimum's value and basis columns
        asked = next(lp.dual_ranges_step(problem, rows, solution=solution))
        names = lp._column_labels(problem._frame.layout(problem.b), problem.var_labels,
                                  problem.row_labels)
        assert asked.z_min == z_min
        assert tuple(names[j] for j in asked.basis) == solution.basis
        request = pinned_region(problem, rows, z_min)
        region, signs = reference_region(problem, z_min)
        assert lp_fields(request.problem) == lp_fields(region)
        for i in rows:
            assert [c.tolist() for _, c in request.objectives[2 * i: 2 * i + 2]] == [
                [signs[i] if k == i else 0.0 for k in rows]] * 2
        # the intervals read off the basis are the region's
        assert same_ends(dual_value_ranges(problem, rows, solution=solution),
                         region_ranges(problem, rows, solution), rel), (problem, solution)


def test_layouts_are_shared_and_read_only():
    pa, pb = (build_lrmc_primal(p) for p in scenarios()[:2])
    a, b = pa._frame.layout(pa.b), pb._frame.layout(pb.b)
    for name in ("col_var", "col_sign", "row_sign", "A_slack", "init_basis", "A_art"):
        assert getattr(a, name) is getattr(b, name), name
        with pytest.raises(ValueError, match="read-only"):
            getattr(a, name)[...] = 0
    assert lp._column_labels(a, pa.var_labels, pa.row_labels) \
        is lp._column_labels(b, pb.var_labels, pb.row_labels)


# x + y = 1 and x + y >= 2 cannot both hold
INFEASIBLE = (LinearProgram(sense="min", c=[1.0, 0.0], A=[[1, 1], [1, 1]],
                            relations=("=", ">="), b=[1.0, 2.0]),
              [("min", [1.0, 0.0]), ("max", [0.0, 1.0]), ("min", [-1.0, 2.0])])
# x + y >= 1, x - y = 0: maximizing x is unbounded, minimizing is not
HALF_UNBOUNDED = (LinearProgram(sense="min", c=[0.0, 0.0], A=[[1, 1], [1, -1]],
                                relations=(">=", "="), b=[1.0, 0.0]),
                  [("max", [1.0, 0.0]), ("min", [1.0, 0.0])])
# Phase 1 prices x at -1e-5: eligible to enter under its own tolerance
# (2e-9) and under the first objective's, not under the second's (about 1e-3).
TOLERANCE_SPLIT = (LinearProgram(sense="min", c=[0.0, 0.0], A=[[1e-5, 1.0]],
                                 relations=("=",), b=[1.0]),
                   [("min", [1.0, 1.0]), ("min", [1e6, 1.0])])
# No phase 1; phase 2 prices x at -1e-5 under both objectives, which enters
# under the first one's tolerance and not under the second's.
PHASE_TWO_TOLERANCES = (LinearProgram(sense="min", c=[0.0, 0.0], A=[[1.0, 1.0]],
                                      relations=("<=",), b=[1.0]),
                        [("min", [-1e-5, 0.0]), ("min", [-1e-5, 1e6])])


def test_infeasible_region_fails_every_objective():
    p, objectives = INFEASIBLE
    shared = solve_objectives(p, objectives)
    assert [s.status for s in shared] == ["infeasible"] * 3
    for got, want in zip(shared, separately(p, objectives)):
        assert_identical(got, want)


def test_unbounded_and_optimal_objectives_share_phase_one():
    p, objectives = HALF_UNBOUNDED
    shared = solve_objectives(p, objectives)
    assert [s.status for s in shared] == ["unbounded", "optimal"]
    for got, want in zip(shared, separately(p, objectives)):
        assert_identical(got, want)


def test_objectives_with_other_tolerances_share_one_phase_one(monkeypatch):
    # phase 1 prices by its own cost row, not by either objective's
    p, objectives = TOLERANCE_SPLIT
    rows = []
    real = lp._Tableau.run

    def run(tab, row, rc_tol):
        rows.append(row)
        return real(tab, row, rc_tol)

    monkeypatch.setattr(lp._Tableau, "run", run)
    shared = solve_objectives(p, objectives)
    assert rows == [1, 2, 3]        # phase 1 (row m = 1) once, then each phase 2
    want = separately(p, objectives)
    assert want[0].iterations == want[1].iterations     # the same phase-1 pivots
    for got, w in zip(shared, want):
        assert_identical(got, w)


def random_lps(seed=11, count=150):
    """Small random LPs with free variables and offsets, three objectives
    each; some are infeasible and some objectives unbounded."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
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
        cases.append((p, objectives))
    return cases


def test_random_lps_match_separate_solves():
    for p, objectives in random_lps():
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


# ---------------------------------------------------------------------------
# the stacked solver: every request of a mixed batch as if solved alone
# ---------------------------------------------------------------------------


@pytest.fixture(params=["every group stacked", "small groups apart"])
def stack_min(request, monkeypatch):
    """Runs a test with every layout group stacked, down to singletons, and
    again with the module's break-even size, below which groups are solved
    one by one."""
    if request.param == "every group stacked":
        monkeypatch.setattr(lp, "STACK_MIN", 1)


def requests_of(step):
    """Every LP request ``step`` yields, answered by ``solve_objectives``; a
    range request is answered without a pool and taken as its pinned dual
    region (``lp_oracle.pinned_region``), an LP of four objectives."""
    seen, answer = [], None
    while True:
        try:
            request = step.send(answer)
        except StopIteration:
            return seen
        if isinstance(request, lp.RangeRequest):
            (answer,) = solve_stacked([request])
            request = pinned_region(*request[:3])
        else:
            answer = solve_objectives(request.problem, request.objectives)
        seen.append(request)


def sweep_requests(params):
    """The LP requests of one scenario: the long-run primal, the
    short-run primal frozen at its build, that primal's dual-range region
    and the perturbed short-run primal."""
    lr = solve_lrmc(params)
    return (requests_of(lrmc_step(params))
            + requests_of(srmc_step(params, lr.decision, lrmc_objective=lr.objective)))


def assert_batch_matches(requests, seed=0):
    """``solve_stacked`` on ``requests`` in a shuffled order: each outcome
    equals what ``solve_objectives`` gives for that request alone."""
    order = np.random.default_rng(seed).permutation(len(requests))
    batch = [requests[k] for k in order]
    for request, got in zip(batch, solve_stacked(batch)):
        want = solve_objectives(request.problem, request.objectives)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_identical(g, w)


def test_sweep_lps_match_solve_objectives_in_a_batch(stack_min):
    requests = [r for params in scenarios() for r in sweep_requests(params)]
    kinds = [len(r.objectives) for r in requests[:4]]
    assert kinds == [1, 1, 4, 1]        # long run, frozen, region, perturbed
    assert_batch_matches(requests)


def test_zero_capacity_short_run_lps_match_in_a_batch(stack_min):
    # zero demand freezes zero capacities: b = -0.0 on the cap rows, whose
    # row signs differ from a positive cap's, so the batch splits by layout
    grid = [SystemParams.from_values(**dict(CANONICAL, d1=d1), d2=d2)
            for d1 in (0.0, 3000.0, 7000.0) for d2 in (0.0, 1000.0, 6000.0, 14000.0)]
    assert_batch_matches([r for params in grid for r in sweep_requests(params)], seed=1)


def test_random_lps_match_solve_objectives_in_a_batch(stack_min):
    cases = random_lps() + random_lps(seed=12) + [
        INFEASIBLE, HALF_UNBOUNDED, TOLERANCE_SPLIT, PHASE_TWO_TOLERANCES] * 3
    p, objectives = PHASE_TWO_TOLERANCES
    assert [s.iterations for s in solve_objectives(p, objectives)] == [1, 0]
    requests = [LpRequest(p, tuple(objectives)) for p, objectives in cases]
    statuses = {s.status for request in requests
                for s in solve_objectives(request.problem, request.objectives)}
    assert statuses == {"optimal", "infeasible", "unbounded"}
    assert_batch_matches(requests, seed=2)


def test_mixed_batch_keeps_each_request_apart(stack_min):
    # models, random LPs and one-row LPs side by side, with singleton
    # layouts
    params = scenarios()[:6]
    requests = [r for p in params for r in sweep_requests(p)]
    requests += [LpRequest(p, tuple(obj)) for p, obj in random_lps(seed=3, count=20)]
    requests += [LpRequest(*TOLERANCE_SPLIT), LpRequest(*INFEASIBLE)]
    assert_batch_matches(requests, seed=3)


def test_request_over_the_pivot_cap_fails_alone(stack_min, monkeypatch):
    requests = [r for params in scenarios()[:8] for r in sweep_requests(params)[:1]]
    need = [max(s.iterations for s in solve_objectives(r.problem, r.objectives))
            for r in requests]
    worst = int(np.argmax(need))
    cap = sorted(need)[-2]
    assert need[worst] > cap         # exactly one request needs more pivots
    monkeypatch.setattr(lp, "MAX_ITERATIONS", cap)
    outcomes = solve_stacked(requests)
    for k, (request, got) in enumerate(zip(requests, outcomes)):
        if k == worst:
            assert isinstance(got, IterationLimitError)
            with pytest.raises(IterationLimitError, match=str(got)):
                solve_objectives(request.problem, request.objectives)
        else:
            for g, w in zip(got, solve_objectives(request.problem, request.objectives)):
                assert_identical(g, w)


def test_malformed_request_fails_alone(stack_min):
    good = [LpRequest.own(build_lrmc_primal(p)) for p in scenarios()[:4]]
    p, _ = TOLERANCE_SPLIT
    bad = LpRequest(p, (("maximize", [1.0, 1.0]),))
    outcomes = solve_stacked(good[:2] + [bad] + good[2:])
    assert isinstance(outcomes[2], LpInputError)
    for request, got in zip(good, outcomes[:2] + outcomes[3:]):
        assert_identical(got[0], solve_lp(request.problem))
