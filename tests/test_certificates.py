"""Basis certificates: a pooled basis answers an LP only when it proves it
optimal.

``solve_stacked`` with a ``BasisPool`` first tries the optimal bases of
the solves the pool was made from, for requests of the same frame and
layout, one objective at a time.  A basis that is not primal feasible
at the new right-hand side, or not dual feasible for the objective, must
leave the answer to the simplex, whose outcome is then
``solve_objectives``' bit for bit, as is that of every request of more
than one objective.  The pool never changes, so an answer does not
depend on what it was asked before or beside.

A dual-interval request (``lp.RangeRequest``) is answered from the
one-sided slopes of the pooled bases where every end is found, within
rounding of the answer of its own basis, and is otherwise answered from
its own basis, as without a pool, bit for bit.  Both are checked against
the pinned dual region (``lp_oracle.request_ranges``).
"""

import dataclasses
import math

import numpy as np
import pytest

from genmargin import cli, lp, tolerances
from genmargin.groups import analytic_solution, classify
from genmargin.lp import (
    BasisPool,
    LinearProgram,
    LpError,
    LpInputError,
    LpRequest,
    LpSolution,
    dual_interval_has_width,
    dual_ranges_step,
    run_step,
    solve_lp,
    solve_objectives,
    solve_stacked,
)
from genmargin.model import SystemParams, build_srmc_primal, lrmc_step, solve_lrmc
from genmargin.sampling import random_params
from genmargin.srmc import default_epsilon

from lp_oracle import request_ranges, same_ends
from test_shared_phase import assert_identical

CANONICAL = dict(ci_r=60, cp_r=1, m_r=3000, ci_f=82, cp_f=20, m_f=4000, cl=200, d1=2000)


def long_run(**over):
    """The long-run request of the README costs with ``over`` applied."""
    return next(lrmc_step(SystemParams.from_values(**dict(CANONICAL, **over))))


def perturbed(istar_from=None, **over):
    """The perturbed short-run request at ``over``, its investments those
    of the long-run optimum at ``istar_from`` (default: ``over``)."""
    params = SystemParams.from_values(**dict(CANONICAL, **over))
    frozen_at = SystemParams.from_values(**dict(CANONICAL, **(istar_from or over)))
    istar = solve_lrmc(frozen_at).decision
    return LpRequest.own(build_srmc_primal(params, istar, epsilon=default_epsilon(params)))


def pool_of(*requests):
    """The pool of the bases the simplex returns for ``requests``."""
    return BasisPool([(request, solve_objectives(*request)) for request in requests])


def pivoted(pool, request):
    """``request`` answered with ``pool``, checked to be the simplex's
    answer, bit for bit."""
    (got,) = solve_stacked([request], pool=pool)
    want = solve_objectives(*request)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.iterations > 0
        assert_identical(g, w)
    return got


# Pairs of d2 in demand regions of the README costs (groups 3, 6 and 7)
# whose optimal bases differ.  (In the perturbed model, 8000 and 12000
# share theirs: fossil is marginal in period 2 at both.)
@pytest.mark.parametrize("kind, source, target", [
    (long_run, 4000.0, 8000.0), (long_run, 8000.0, 12000.0),
    (long_run, 12000.0, 4000.0), (long_run, 8000.0, 4000.0),
    (perturbed, 4000.0, 8000.0), (perturbed, 12000.0, 4000.0),
    (perturbed, 8000.0, 4000.0),
])
def test_basis_of_another_demand_region_is_not_taken(kind, source, target):
    src = kind(d2=source)
    pool = pool_of(src)
    # the basis is kept, and certifies its own right-hand side ...
    (again,) = solve_stacked([src], pool=pool)
    want = solve_objectives(*src)
    assert [s.iterations for s in again] == [0] * len(want)
    assert [s.basis for s in again] == [s.basis for s in want]
    # ... but is not primal feasible at the target's
    pivoted(pool, kind(d2=target))


@pytest.mark.parametrize("kind, cl, d2", [
    # shedding beats building renewables for the peak (cl = 50) or fossil
    # (cl = 90, which leaves the build at d2 = 4000 as it is)
    *((long_run, 50.0, d2) for d2 in (4000.0, 8000.0, 12000.0)),
    *((long_run, 90.0, d2) for d2 in (8000.0, 12000.0)),
    # shedding beats running the fossil plant built for period 2
    *((perturbed, 10.0, d2) for d2 in (8000.0, 12000.0)),
])
def test_basis_of_other_costs_is_not_taken(kind, cl, d2):
    target = kind(d2=d2)
    if kind is long_run:
        foreign = kind(d2=d2, cl=cl)
    else:                               # same investments, so the same b
        foreign = kind(istar_from=dict(d2=d2), d2=d2, cl=cl)
    assert foreign.problem.b.tobytes() == target.problem.b.tobytes()
    theirs = solve_objectives(*foreign)
    assert [s.basis for s in theirs] != [s.basis for s in solve_objectives(*target)]
    # primal feasible here (the same b), but not optimal for these costs
    pivoted(BasisPool([(target, theirs)]), target)


@pytest.mark.parametrize("kind", [long_run, perturbed])
def test_request_of_two_objectives_is_pivoted(kind):
    # the atlas certifies the request's own objective alone, but a request
    # of two objectives, even that one twice, goes to the simplex
    pool = cli.basis_atlas()
    request = kind(d2=8000.0)
    (alone,) = solve_stacked([request], pool=pool)
    assert alone[0].iterations == 0
    own = request.objectives[0]
    for objectives in ((own, own), (own, ("max", -request.problem.c))):
        pivoted(pool, LpRequest(request.problem, objectives))


def test_basis_with_an_artificial_column_is_not_kept():
    # the second row repeats the first, so its artificial stays basic
    problem = LinearProgram(sense="min", c=[1.0, 2.0], A=[[1.0, 1.0], [1.0, 1.0]],
                            relations=("=", "="), b=[1.0, 1.0])
    request = LpRequest.own(problem)
    (first,) = solve_objectives(*request)
    assert any(label.startswith("a[") for label in first.basis)
    pivoted(pool_of(request), request)


def test_certified_answers_are_optima():
    # random demands at the README costs, answered chunk by chunk from the
    # bases of a coarse demand grid, against the simplex alone: the same
    # verdict and optimal value, and the same basis wherever the simplex's
    # optimum is not degenerate
    grid = np.linspace(0.0, 15000.0, 6)
    pool = pool_of(*(kind(d1=d1, d2=d2) for kind in (long_run, perturbed)
                     for d1 in grid for d2 in grid))
    rng = np.random.default_rng(5)
    demands = rng.uniform(0.0, 15000.0, size=(96, 2))
    requests = [long_run(d1=d1, d2=d2) for d1, d2 in demands]
    requests += [perturbed(d1=d1, d2=d2) for d1, d2 in demands]
    answers = []
    for start in range(0, len(requests), 32):
        answers += solve_stacked(requests[start:start + 32], pool=pool)
    certified = 0
    for request, got in zip(requests, answers):
        want = solve_objectives(*request)
        for g, w in zip(got, want):
            certified += g.iterations == 0
            assert g.status == w.status == "optimal"
            assert abs(g.objective - w.objective) <= 1e-9 * (1.0 + abs(w.objective))
            assert np.allclose(g.x, w.x, rtol=0.0, atol=1e-9 * 15000.0)
            if g.iterations == 0 and not any(abs(v) <= 1e-9 for v in w.x):
                assert g.basis == w.basis
                assert g.duals.tobytes() == w.duals.tobytes()
    assert certified >= len(requests) // 2


@pytest.mark.parametrize("kind", [long_run, perturbed])
def test_certified_answer_does_not_depend_on_its_history(kind):
    # one request answered by the sweep's pool alone, first, last and in
    # the middle of 32, and after a whole grid: every field byte-equal.
    # Demands off the integers make B⁻¹b depend on the order of its sums.
    pool = cli.basis_atlas()
    request = kind(d1=3183.0988618379067, d2=9424.77796076938)
    rng = np.random.default_rng(8)
    others = [kind(d1=d1, d2=d2) for d1, d2 in rng.uniform(0.0, 15000.0, size=(31, 2))]
    (alone,) = solve_stacked([request], pool=pool)
    assert all(s.iterations == 0 for s in alone)
    answers = []
    for at in (0, 16, 31):
        batch = others[:at] + [request] + others[at:]
        answers.append(solve_stacked(batch, pool=pool)[at])
    grid = np.linspace(0.0, 15000.0, 11)
    requests = [kind(d1=d1, d2=d2) for d1 in grid for d2 in grid]
    for start in range(0, len(requests), 32):
        solve_stacked(requests[start:start + 32], pool=pool)
    answers += solve_stacked([request], pool=pool)
    for answer in answers:
        for got, want in zip(answer, alone):
            assert_identical(got, want)


def test_tie_points_are_answered_as_the_simplex_answers():
    # With no demand in period 1, building for period 2 in period 1 or 2
    # costs the same, so the long-run optimum is not unique.  At
    # non-integer costs the sweep's pool must still give the simplex's
    # optimum, to the rounding of B⁻¹b.
    pool = cli.basis_atlas()
    rng = np.random.default_rng(11)
    certified = 0
    for _ in range(60):
        params = random_params(rng)
        for d2 in (0.0, params.d2, params.m_r + params.d2):
            request = next(lrmc_step(dataclasses.replace(params, d1=0.0, d2=d2)))
            (got,) = solve_stacked([request], pool=pool)
            want = solve_objectives(*request)
            for g, w in zip(got, want):
                certified += g.iterations == 0
                assert np.abs(g.x - w.x).max() <= 1e-15 * (1.0 + np.abs(w.x).max())
    assert certified >= 150


def test_pooled_long_run_solve_matches_the_pivoted_one():
    # selftest's long-run solve answered from the pool, on draws with their
    # own costs: the optimum, the build and the prices of the simplex's solve
    tol = tolerances.current()
    pool = cli.basis_atlas()
    rng = np.random.default_rng(3)
    certified = 0
    for _ in range(300):
        params = random_params(rng)
        got, want = solve_lrmc(params, pool=pool), solve_lrmc(params)
        certified += got.lp_solution.iterations == 0
        assert abs(got.objective - want.objective) <= tol.gap * (1.0 + abs(want.objective))
        for g, w in zip(got.decision.investments(), want.decision.investments()):
            assert abs(g - w) <= 1e-12 * (1.0 + abs(w))
        for t in (1, 2):
            assert abs(got.duals.lam(t) - want.duals.lam(t)) <= tol.lam_match
    assert certified >= 0.9 * 300


def test_pooled_step_raises_what_the_solver_raises():
    problem = LinearProgram(sense="min", c=[1.0, 2.0], A=[[1.0, 1.0]],
                            relations=("=",), b=[1.0])

    def step():
        yield LpRequest(problem, (("least", problem.c),))

    for pool in (None, BasisPool([])):
        with pytest.raises(LpInputError, match="sense must be 'min' or 'max'"):
            run_step(step(), pool)


# ---------------------------------------------------------------------------
# dual intervals from one-sided slopes
# ---------------------------------------------------------------------------


def frozen_at(params):
    """The short-run LP frozen at the closed form's build, as every verb
    freezes it."""
    return build_srmc_primal(params, analytic_solution(params, classify(params)).decision)


def range_request(params):
    """The balance rows' range request of the frozen short-run LP."""
    frozen = frozen_at(params)
    return next(dual_ranges_step(frozen, ("balance_1", "balance_2"),
                                 solution=solve_lp(frozen)))


def answered_both_ways(requests, monkeypatch):
    """``(pooled, pool-free, fell)``: each request's intervals with the
    atlas and without it, and whether the pooled answer fell to the
    request's own basis (``lp._basis_ranges``)."""
    pool = cli.basis_atlas()
    own, real = set(), lp._basis_ranges

    def basis_ranges(request):
        own.add(id(request))
        return real(request)

    monkeypatch.setattr(lp, "_basis_ranges", basis_ranges)
    pooled = solve_stacked(requests, pool=pool)
    fell = [id(request) in own for request in requests]
    return pooled, solve_stacked(requests), fell


def assert_same_intervals(got, want, fell):
    """An answer from the request's own basis is the pool-free one bit
    for bit; a certified one within 1e-9 relative."""
    if fell:
        assert np.array(got).tobytes() == np.array(want).tobytes(), (got, want)
        return
    for g, w in zip(np.ravel(got).tolist(), np.ravel(want).tolist()):
        assert g == w or abs(g - w) <= 1e-9 * (1.0 + abs(w)), (got, want)


@pytest.mark.parametrize("seed", [11, 42])
def test_certified_intervals_are_the_regions(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    requests = [range_request(random_params(rng)) for _ in range(300)]
    pooled, plain, fell = answered_both_ways(requests, monkeypatch)
    for request, got, want, own in zip(requests, pooled, plain, fell):
        assert_same_intervals(got, want, own)
        assert same_ends(want, request_ranges(request)), request
    assert sum(fell) <= 0.15 * len(requests)
    # certified ends that differ come from the lexicographic test
    assert sum(dual_interval_has_width(*interval) for got, own in zip(pooled, fell)
               if not own for interval in got) >= 100


@pytest.mark.parametrize("over, want, own", [
    # an empty period's left slope is -inf: no basis gives it
    (dict(d1=0.0), ((-math.inf, 1.0), (20.0, 200.0)), True),
    (dict(d2=0.0), ((1.0, 200.0), (-math.inf, 1.0)), True),
    (dict(d1=0.0, d2=0.0), ((-math.inf, 200.0), (-math.inf, 200.0)), True),
    # cl below CI_r / 2 + CP_r: nothing is built and everything is shed
    (dict(cl=20.0), ((20.0, 20.0), (20.0, 20.0)), False),
    # group 3: the capacity built for period 2 is used up in both periods
    (dict(cl=80.0, d2=4000.0), ((1.0, 80.0), (1.0, 80.0)), False),
])
def test_edge_intervals_are_the_regions(over, want, own, monkeypatch):
    request = range_request(SystemParams.from_values(**{**CANONICAL, "d2": 8000.0, **over}))
    (got,), (plain,), (fell,) = answered_both_ways([request], monkeypatch)
    assert fell is own
    assert_same_intervals(got, plain, fell)
    assert np.allclose(plain, want, rtol=0.0, atol=1e-9)
    assert same_ends(plain, request_ranges(request))


def test_optimal_value_of_another_point_is_not_certified(monkeypatch):
    # a feasible point that is not optimal: the bases price the LP below
    # its objective, so the request falls to its own basis, which a point
    # made by hand does not name
    frozen = frozen_at(SystemParams.from_values(**dict(CANONICAL, cl=80.0, d2=4000.0)))
    x = np.array([0.0, 0.0, 0.0, 0.0, 2000.0, 4000.0])     # every unit shed
    shed = LpSolution(status="optimal", x=x,
                      objective=float(frozen.c @ x) + frozen.objective_offset)
    pool = cli.basis_atlas()
    for with_pool in (None, pool):
        with pytest.raises(LpError, match="not optimal for problem"):
            run_step(dual_ranges_step(frozen, (0, 1), solution=shed), with_pool)
