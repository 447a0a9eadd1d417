"""Batched solves: the same LP results, bit for bit.

Every outcome of ``solve_stacked`` must equal what ``solve_lp`` gives for
that LP alone, down to the last bit of every array (signed zeros
included) and the pivot count.  Every interval of ``dual_value_ranges``
must equal the one-row result bit for bit, and the pinned dual region's
(``lp_oracle.region_ranges``, one solve per end) within 1e-9 relative.
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
    dual_value_range,
    dual_value_ranges,
    solve_lp,
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


def split(problem, objectives):
    """One LP per ``(sense, c)`` of ``objectives`` over ``problem``'s rows."""
    return [dataclasses.replace(problem, sense=sense, c=c) for sense, c in objectives]


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
        lr = solve_lrmc(params)
        assert_identical(lr.lp_solution, solve_lp(primal))
        frozen = build_srmc_primal(params, lr.decision)
        for problem, solution in ((primal, lr.lp_solution), (frozen, solve_lp(frozen))):
            rows = problem.row_labels[:4]       # both balance rows, two cap rows
            ranges = dual_value_ranges(problem, rows, solution=solution)
            assert ranges == tuple(dual_value_range(problem, r, solution=solution)
                                   for r in rows), params
            assert same_ends(ranges, [one_row_range(problem, r, solution) for r in rows]), params


def lp_fields(p):
    """Every field of an LP but its objective, arrays byte for byte (dtype
    and shape too)."""
    return (p.relations, p.var_labels, p.row_labels, p.objective_offset,
            *[(a.dtype, a.shape, a.tobytes()) for a in (p.A, p.b, p.lower_bounds)])


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
    for problem in random_lps() + random_lps(seed=12):
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
        names = problem._frame.layout(problem.b).labels
        assert asked.z_min == z_min
        assert tuple(names[j] for j in asked.basis) == solution.basis
        ends = pinned_region(problem, rows, z_min)
        region, signs = reference_region(problem, z_min)
        assert all(lp_fields(end) == lp_fields(region) for end in ends)
        for i in rows:
            assert [(end.sense, end.c.tolist()) for end in ends[2 * i: 2 * i + 2]] == [
                (sense, [signs[i] if k == i else 0.0 for k in rows]) for sense in ("min", "max")]
        # the intervals read off the basis are the region's
        assert same_ends(dual_value_ranges(problem, rows, solution=solution),
                         region_ranges(problem, rows, solution), rel), (problem, solution)


def test_layouts_are_shared_and_read_only():
    pa, pb = (build_lrmc_primal(p) for p in scenarios()[:2])
    a = pa._frame.layout(pa.b)
    assert pb._frame.layout(pb.b) is a
    for name in ("col_var", "col_sign", "row_sign", "init_basis", "columns"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(a, name)[...] = 0
    assert isinstance(a.labels, tuple)
    with pytest.raises(TypeError):
        a.index[a.labels[0]] = 0


# x + y = 1 and x + y >= 2 cannot both hold
INFEASIBLE = split(LinearProgram(sense="min", c=[1.0, 0.0], A=[[1, 1], [1, 1]],
                                 relations=("=", ">="), b=[1.0, 2.0]),
                   [("min", [1.0, 0.0]), ("max", [0.0, 1.0]), ("min", [-1.0, 2.0])])
# x + y >= 1, x - y = 0: maximizing x is unbounded, minimizing is not
HALF_UNBOUNDED = split(LinearProgram(sense="min", c=[0.0, 0.0], A=[[1, 1], [1, -1]],
                                     relations=(">=", "="), b=[1.0, 0.0]),
                       [("max", [1.0, 0.0]), ("min", [1.0, 0.0])])
# Phase 1 prices x at -1e-5: eligible to enter under its own tolerance
# (2e-9) and under the first objective's, not under the second's (about 1e-3).
TOLERANCE_SPLIT = split(LinearProgram(sense="min", c=[0.0, 0.0], A=[[1e-5, 1.0]],
                                      relations=("=",), b=[1.0]),
                        [("min", [1.0, 1.0]), ("min", [1e6, 1.0])])
# No phase 1; phase 2 prices x at -1e-5 under both objectives, which enters
# under the first one's tolerance and not under the second's.
PHASE_TWO_TOLERANCES = split(LinearProgram(sense="min", c=[0.0, 0.0], A=[[1.0, 1.0]],
                                           relations=("<=",), b=[1.0]),
                             [("min", [-1e-5, 0.0]), ("min", [-1e-5, 1e6])])


def phase_one_ends(problems, monkeypatch):
    """Per LP of ``problems``, solved by ``solve_lp``: the tolerance its
    phase 1 prices at, and its pivots, basis and constraint rows where
    phase 1 ends."""
    ends, real = [], lp._Tableau.run

    def run(tab, row, rc_tol):
        status = real(tab, row, rc_tol)
        if row == tab.m:
            ends.append((rc_tol, tab.iterations, tab.basis.tolist(), tab.T[:tab.m].tobytes()))
        return status

    monkeypatch.setattr(lp._Tableau, "run", run)
    for p in problems:
        solve_lp(p)
    assert len(ends) == len(problems)
    return ends


def test_infeasible_region_fails_every_objective():
    # phase 1 reads no objective, so every LP over the region fails alike
    got = [solve_lp(p) for p in INFEASIBLE]
    assert [s.status for s in got] == ["infeasible"] * 3
    assert len({s.iterations for s in got}) == 1


def test_unbounded_and_optimal_objectives_share_phase_one(monkeypatch):
    first, second = phase_one_ends(HALF_UNBOUNDED, monkeypatch)
    assert first == second
    monkeypatch.undo()
    assert [solve_lp(p).status for p in HALF_UNBOUNDED] == ["unbounded", "optimal"]


def test_objectives_with_other_tolerances_share_one_phase_one(monkeypatch):
    # phase 1 prices by its own cost row, not by either objective's, so x
    # enters in both LPs
    first, second = phase_one_ends(TOLERANCE_SPLIT, monkeypatch)
    assert first == second
    rc_tol, pivots, basis, _ = first
    assert rc_tol == float(lp._phase1_tol()) and pivots == 1 and basis == [0]


def random_lps(seed=11, count=150):
    """Small random LPs with free variables and offsets, three objectives
    over each feasible region, one LP per objective; some regions are
    infeasible and some objectives unbounded."""
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
        cases += split(p, objectives)
    return cases


# ---------------------------------------------------------------------------
# the batched solver: every request of a mixed batch as if solved alone
# ---------------------------------------------------------------------------


def requests_of(step):
    """Every LP ``step`` yields, answered by ``solve_lp``; a range request
    is answered without a pool and taken as the LPs of its pinned dual
    region (``lp_oracle.pinned_region``), one per end of each row."""
    seen, answer = [], None
    while True:
        try:
            request = step.send(answer)
        except StopIteration:
            return seen
        if isinstance(request, lp.RangeRequest):
            (answer,) = solve_stacked([request])
            seen += pinned_region(*request[:3])
        else:
            answer = solve_lp(request)
            seen.append(request)


def sweep_requests(params):
    """The LPs of one scenario: the long-run primal, the short-run primal
    frozen at its build, the ends of that primal's dual-range region and
    the perturbed short-run primal."""
    lr = solve_lrmc(params)
    return (requests_of(lrmc_step(params))
            + requests_of(srmc_step(params, lr.decision, lrmc_objective=lr.objective)))


def assert_batch_matches(requests, seed=0):
    """``solve_stacked`` on ``requests`` in a shuffled order: each outcome
    equals what ``solve_lp`` gives for that LP alone."""
    order = np.random.default_rng(seed).permutation(len(requests))
    batch = [requests[k] for k in order]
    for request, got in zip(batch, solve_stacked(batch)):
        assert_identical(got, solve_lp(request))


def test_sweep_lps_match_solve_lp_in_a_batch():
    requests = [r for params in scenarios() for r in sweep_requests(params)]
    # long run, frozen, the balance rows' region ends, perturbed
    frames = [r._frame for r in requests[:7]]
    assert frames[1] is frames[6] is not frames[0] and len(set(frames[2:6])) == 1
    assert [r.sense for r in requests[2:6]] == ["min", "max"] * 2
    assert_batch_matches(requests)


def test_zero_capacity_short_run_lps_match_in_a_batch():
    # zero demand freezes zero capacities: b = -0.0 on the cap rows, whose
    # row signs differ from a positive cap's, so the batch splits by layout
    grid = [SystemParams.from_values(**dict(CANONICAL, d1=d1), d2=d2)
            for d1 in (0.0, 3000.0, 7000.0) for d2 in (0.0, 1000.0, 6000.0, 14000.0)]
    assert_batch_matches([r for params in grid for r in sweep_requests(params)], seed=1)


def test_random_lps_match_solve_lp_in_a_batch():
    requests = random_lps() + random_lps(seed=12) + (
        INFEASIBLE + HALF_UNBOUNDED + TOLERANCE_SPLIT + PHASE_TWO_TOLERANCES) * 3
    assert [solve_lp(p).iterations for p in PHASE_TWO_TOLERANCES] == [1, 0]
    assert {solve_lp(p).status for p in requests} == {"optimal", "infeasible", "unbounded"}
    assert_batch_matches(requests, seed=2)


def test_mixed_batch_keeps_each_request_apart():
    # models, random LPs and one-row LPs side by side, with singleton
    # layouts
    params = scenarios()[:6]
    requests = [r for p in params for r in sweep_requests(p)]
    requests += random_lps(seed=3, count=20) + TOLERANCE_SPLIT + INFEASIBLE
    assert_batch_matches(requests, seed=3)


def test_request_over_the_pivot_cap_fails_alone(monkeypatch):
    requests = [sweep_requests(params)[0] for params in scenarios()[:8]]
    need = [solve_lp(r).iterations for r in requests]
    worst = int(np.argmax(need))
    cap = sorted(need)[-2]
    assert need[worst] > cap         # exactly one request needs more pivots
    monkeypatch.setattr(lp, "MAX_ITERATIONS", cap)
    outcomes = solve_stacked(requests)
    for k, (request, got) in enumerate(zip(requests, outcomes)):
        if k == worst:
            assert isinstance(got, IterationLimitError)
            with pytest.raises(IterationLimitError, match=str(got)):
                solve_lp(request)
        else:
            assert_identical(got, solve_lp(request))


def test_malformed_request_fails_alone():
    good = [build_lrmc_primal(p) for p in scenarios()[:4]]
    bad = LinearProgram(sense="min", c=[1.0, 1.0], A=np.zeros((0, 2)), relations=(), b=[])
    outcomes = solve_stacked(good[:2] + [bad] + good[2:])
    assert isinstance(outcomes[2], LpInputError)
    for request, got in zip(good, outcomes[:2] + outcomes[3:]):
        assert_identical(got, solve_lp(request))
