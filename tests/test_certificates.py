"""Basis certificates: a pooled basis answers an LP only when it proves it
optimal.

``solve_stacked`` with a ``BasisPool`` first tries the optimal bases that
the simplex returned for earlier requests of the same layout, ``A`` and
objectives.  A basis that is not primal feasible at the new right-hand
side, or not dual feasible for the objectives, must leave the answer to
the simplex, whose outcome is then ``solve_objectives``' bit for bit.
"""

import numpy as np
import pytest

from genmargin import lp
from genmargin.lp import BasisPool, LinearProgram, LpRequest, solve_objectives, solve_stacked
from genmargin.model import SystemParams, build_srmc_primal, lrmc_step, solve_lrmc
from genmargin.srmc import default_epsilon

from test_shared_phase import assert_identical

CANONICAL = dict(ci_r=60, cp_r=1, m_r=3000, ci_f=82, cp_f=20, m_f=4000, cl=200, d1=2000)


def long_run(**over):
    """The long-run request (objective and deferred-investment tie-break)
    of the README costs with ``over`` applied."""
    return next(lrmc_step(SystemParams.from_values(**dict(CANONICAL, **over))))


def perturbed(istar_from=None, **over):
    """The perturbed short-run request at ``over``, its investments those
    of the long-run optimum at ``istar_from`` (default: ``over``)."""
    params = SystemParams.from_values(**dict(CANONICAL, **over))
    frozen_at = SystemParams.from_values(**dict(CANONICAL, **(istar_from or over)))
    istar = solve_lrmc(frozen_at).decision
    return LpRequest.own(build_srmc_primal(params, istar, epsilon=default_epsilon(params)))


def seed(pool, request, solutions):
    """Offer the bases of ``solutions`` to ``pool`` as though the simplex
    had returned them for ``request``."""
    problem, objectives = request
    shift, b_work = lp._shifted_rhs(problem)
    key = pool.key(problem._frame.layout(b_work), problem, objectives)
    pool.learn([key], [(0, problem, objectives, shift, b_work)], [solutions])


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
    pool = BasisPool()
    src = kind(d2=source)
    solve_stacked([src], pool=pool)
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
    pool = BasisPool()
    # primal feasible here (the same b), but not optimal for these costs
    seed(pool, target, theirs)
    pivoted(pool, target)


def test_basis_with_an_artificial_column_is_not_kept():
    # the second row repeats the first, so its artificial stays basic
    problem = LinearProgram(sense="min", c=[1.0, 2.0], A=[[1.0, 1.0], [1.0, 1.0]],
                            relations=("=", "="), b=[1.0, 1.0])
    request = LpRequest.own(problem)
    (first,) = solve_objectives(*request)
    assert any(label.startswith("a[") for label in first.basis)
    pool = BasisPool()
    solve_stacked([request], pool=pool)
    pivoted(pool, request)


def test_certified_answers_are_optima():
    # a demand grid at the README costs, answered chunk by chunk with one
    # pool, against the simplex alone: the same verdict and optimal value,
    # and the same basis wherever the simplex's optimum is not degenerate
    rng = np.random.default_rng(5)
    demands = rng.uniform(0.0, 15000.0, size=(96, 2))
    requests = [long_run(d1=d1, d2=d2) for d1, d2 in demands]
    requests += [perturbed(d1=d1, d2=d2) for d1, d2 in demands]
    pool, answers = BasisPool(), []
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
