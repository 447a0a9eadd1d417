"""Frames: the model's LPs are built over a frame checked once at import.

A frame (``lp._Frame``) holds what LPs of one kind share: ``A``, the
relations, the lower bounds and the labels.  An LP built over it checks
only its ``c`` and ``b``.  Every result must be what a full
``LinearProgram`` with the same data gives, bit for bit, and every check a
full build makes must still run somewhere.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from genmargin import lp, model
from genmargin.lp import (
    BasisPool,
    LinearProgram,
    LpInputError,
    LpRequest,
    solve_lp,
    solve_objectives,
    solve_stacked,
)
from genmargin.model import (
    SystemParams,
    build_lrmc_dual,
    build_lrmc_primal,
    build_srmc_dual,
    build_srmc_primal,
    lrmc_step,
    solve_lrmc,
)
from genmargin.srmc import default_epsilon

from lp_oracle import pinned_region
from test_shared_phase import CANONICAL, assert_identical

#: an interior point of the README costs, a region boundary (d2 = 6000) and
#: zero demand, where the long-run optimum builds nothing (istar = 0)
POINTS = {"interior": dict(d2=8000.0), "boundary": dict(d2=6000.0),
          "zero istar": dict(d1=0.0, d2=0.0)}


def params_at(point):
    return SystemParams.from_values(**dict(CANONICAL, **POINTS[point]))


def requests_at(point):
    """The request of each model LP kind at ``point``: the long-run primal,
    the explicit dual, and the short-run primal frozen at the long-run
    build, unperturbed and perturbed."""
    params = params_at(point)
    istar = solve_lrmc(params).decision
    if point == "zero istar":
        assert istar.investments() == (0.0, 0.0, 0.0, 0.0)
    return {
        "long-run primal": next(lrmc_step(params)),
        "explicit dual": LpRequest.own(build_lrmc_dual(params)),
        "frozen short-run": LpRequest.own(build_srmc_primal(params, istar)),
        "perturbed short-run": LpRequest.own(
            build_srmc_primal(params, istar, epsilon=default_epsilon(params))),
    }


def full(request):
    """``request`` over a full ``LinearProgram`` with the same data: every
    field checked again, and a frame of its own."""
    problem = dataclasses.replace(request.problem)
    assert problem._frame is not request.problem._frame
    assert problem.A is not request.problem.A
    objectives = tuple((sense, problem.c if c is request.problem.c else c)
                       for sense, c in request.objectives)
    return LpRequest(problem, objectives)


def assert_all_identical(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert not isinstance(g, Exception) and not isinstance(w, Exception)
        assert len(g) == len(w)
        for a, b in zip(g, w):
            assert_identical(a, b)


@pytest.fixture
def stacks(monkeypatch):
    """The member count of every group the stacked kernel solves."""
    sizes, kernel = [], lp._solve_stack

    def counted(members, layout):
        sizes.append(len(members))
        return kernel(members, layout)

    monkeypatch.setattr(lp, "_solve_stack", counted)
    return sizes


@pytest.mark.parametrize("point", POINTS)
@pytest.mark.parametrize("kind", ["long-run primal", "explicit dual", "frozen short-run",
                                  "perturbed short-run"])
def test_frames_change_no_result(kind, point, stacks):
    framed = requests_at(point)[kind]
    whole = full(framed)
    assert_all_identical([solve_objectives(*framed)], [solve_objectives(*whole)])
    # below STACK_MIN the requests are solved one by one, from it on stacked
    for k in (lp.STACK_MIN - 1, lp.STACK_MIN):
        del stacks[:]
        assert_all_identical(solve_stacked([framed] * k), solve_stacked([whole] * k))
        assert stacks == ([k, k] if k == lp.STACK_MIN else [])
    # a pool made from a request's solve answers it from that basis
    answers = []
    for request in (framed, whole):
        pool = BasisPool([(request, solve_objectives(*request))])
        answers.append(solve_stacked([request], pool=pool))
    assert_all_identical(*answers)
    assert all(s.iterations == 0 for s in answers[0][0])


def test_framed_and_full_lps_of_one_layout_stack_together(stacks):
    framed = [requests_at(point)["long-run primal"] for point in POINTS]
    (layout,) = {r.problem._frame.layout(r.problem.b) for r in framed}
    # 64 other layouts, seen before the full copies' frames look theirs up:
    # a layout is one object however many the process has made
    frame = lp._Frame(np.eye(6), (">=",) * 6)
    others = {frame.layout(np.array(signs)) for signs in itertools.product((1.0, -1.0), repeat=6)}
    assert len(others) == 64 and layout not in others
    batch = framed + [full(r) for r in framed]
    batch = (batch * lp.STACK_MIN)[: lp.STACK_MIN]
    assert {r.problem._frame.layout(r.problem.b) for r in batch} == {layout}
    assert_all_identical(solve_stacked(batch), [solve_objectives(*r) for r in batch])
    assert stacks == [lp.STACK_MIN]


def test_dual_range_regions_with_their_own_matrices_stack_together(stacks):
    # the pinned dual regions (lp_oracle) of the frozen short-run LPs of a
    # d2 sweep: each region's last row is its own b, so every region has
    # its own A and frame, and one layout
    regions = []
    for d2 in np.linspace(3000.0, 13000.0, lp.STACK_MIN):
        params = SystemParams.from_values(**CANONICAL, d2=float(d2))
        frozen = build_srmc_primal(params, solve_lrmc(params).decision)
        regions.append(pinned_region(*next(lp.dual_ranges_step(
            frozen, range(frozen.n_rows), solution=solve_lp(frozen)))[:3]))
    problems = [r.problem for r in regions]
    assert len({p.A.tobytes() for p in problems}) == len({id(p._frame) for p in problems}) \
        == len(regions)
    assert len({p._frame.layout(p.b) for p in problems}) == 1
    assert_all_identical(solve_stacked(regions), [solve_objectives(*r) for r in regions])
    assert stacks == [len(regions)]


# ---------------------------------------------------------------------------
# the framed path keeps its checks
# ---------------------------------------------------------------------------


GOOD_C, GOOD_B = [1.0] * 10, [1.0] * 10


@pytest.mark.parametrize("sense, c, b, message", [
    ("min", GOOD_C, GOOD_B[:9], r"^matrix has 10 rows but \|b\| = 9, \|relations\| = 10$"),
    ("min", GOOD_C, [GOOD_B], "^b must be one-dimensional$"),
    ("min", GOOD_C, GOOD_B[:9] + [math.nan], "^A, b must be finite$"),
    ("min", GOOD_C, [-math.inf] + GOOD_B[1:], "^A, b must be finite$"),
    ("min", GOOD_C[:9], GOOD_B, "^objective has 9 entries for 10 columns$"),
    ("min", [GOOD_C], GOOD_B, "^c must be one-dimensional$"),
    ("min", GOOD_C[:9] + [math.inf], GOOD_B, "^c must be finite$"),
    ("max!", GOOD_C, GOOD_B, "^sense must be 'min' or 'max', got 'max!'$"),
])
def test_framed_instance_is_checked(sense, c, b, message):
    frame = model._LRMC
    with pytest.raises(LpInputError, match=message):
        frame.program(sense, c, b)
    # the message a full LinearProgram with the same data gives
    with pytest.raises(LpInputError, match=message):
        LinearProgram(sense=sense, c=c, A=frame.A, relations=frame.relations, b=b,
                      var_labels=frame.var_labels, row_labels=frame.row_labels)


@pytest.mark.parametrize("over, message", [
    (dict(A=[[math.inf, 1.0], [1.0, -1.0]]), "^A, b must be finite$"),
    (dict(A=[[1.0, 1.0], [math.nan, -1.0]]), "^A, b must be finite$"),
    (dict(var_labels=("x", "x")), "^variable labels must be unique"),
    (dict(row_labels=("r", "r")), "^row labels must be unique"),
    (dict(relations=(">=",)), r"^matrix has 2 rows but \|relations\| = 1$"),
    (dict(relations=(">=", "<")), "^unknown relation '<'$"),
    (dict(lower_bounds=[0.0, math.nan]), "^lower bounds must be finite or -inf$"),
    (dict(lower_bounds=[-1.0, 0.0]), "^finite lower bounds must be 0$"),
])
def test_malformed_frame_is_rejected_when_built(over, message):
    data = dict(A=[[1.0, 1.0], [1.0, -1.0]], relations=(">=", "<="))
    with pytest.raises(LpInputError, match=message):
        lp._Frame(**dict(data, **over))


def test_builders_share_their_frames_read_only_arrays():
    params = [params_at(point) for point in POINTS]
    istar = (1000.0, 2000.0, 0.0, 500.0)
    builds = {
        model._LRMC: [build_lrmc_primal(p) for p in params],
        model._LRMC_DUAL: [build_lrmc_dual(p) for p in params],
        model._SRMC: [build_srmc_primal(p, istar, eps) for p in params for eps in (0.0, 0.5)],
        model._SRMC_DUAL: [build_srmc_dual(p, istar, eps) for p in params for eps in (0.0, 0.5)],
    }
    for frame, problems in builds.items():
        for p in problems:
            assert p._frame is frame
            assert p.A is frame.A and p.lower_bounds is frame.lower_bounds
            assert p.var_labels is frame.var_labels and p.row_labels is frame.row_labels
            for a in (p.c, p.A, p.b, p.lower_bounds):
                assert not a.flags.writeable
        assert len({p.c.tobytes() + p.b.tobytes() for p in problems}) > 1
