"""Frames: the model's LPs are built over a frame checked once at import.

A frame (``lp._Frame``) holds what LPs of one kind share: ``A``, the
relations, the lower bounds and the labels.  An LP built over it checks
only its ``c`` and ``b``.  Every result must be what a full
``LinearProgram`` with the same data gives, bit for bit, and every check a
full build makes must still run somewhere.
"""

import dataclasses
import math

import numpy as np
import pytest

from genmargin import cli, lp, model
from genmargin.lp import LinearProgram, LpInputError, solve_lp, solve_stacked
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

from lp_oracle import pinned_region, solved_pool
from test_shared_phase import CANONICAL, assert_identical

#: an interior point of the README costs, a region boundary (d2 = 6000) and
#: zero demand, where the long-run optimum builds nothing (istar = 0)
POINTS = {"interior": dict(d2=8000.0), "boundary": dict(d2=6000.0),
          "zero istar": dict(d1=0.0, d2=0.0)}


def params_at(point):
    return SystemParams.from_values(**dict(CANONICAL, **POINTS[point]))


def requests_at(point):
    """Each model LP kind at ``point``: the long-run primal, the explicit
    dual, and the short-run primal frozen at the long-run build,
    unperturbed and perturbed."""
    params = params_at(point)
    istar = solve_lrmc(params).decision
    if point == "zero istar":
        assert istar.investments() == (0.0, 0.0, 0.0, 0.0)
    return {
        "long-run primal": next(lrmc_step(params)),
        "explicit dual": build_lrmc_dual(params),
        "frozen short-run": build_srmc_primal(params, istar),
        "perturbed short-run": build_srmc_primal(params, istar, epsilon=default_epsilon(params)),
    }


def full(problem):
    """``problem`` as a full ``LinearProgram`` with the same data: every
    field checked again, and a frame of its own."""
    whole = dataclasses.replace(problem)
    assert whole._frame is not problem._frame
    assert whole.A is not problem.A
    return whole


def assert_all_identical(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert not isinstance(g, Exception) and not isinstance(w, Exception)
        assert_identical(g, w)


@pytest.mark.parametrize("point", POINTS)
@pytest.mark.parametrize("kind", ["long-run primal", "explicit dual", "frozen short-run",
                                  "perturbed short-run"])
def test_frames_change_no_result(kind, point):
    framed = requests_at(point)[kind]
    whole = full(framed)
    assert_identical(solve_lp(framed), solve_lp(whole))
    for k in (7, 8):
        assert_all_identical(solve_stacked([framed] * k), solve_stacked([whole] * k))
    # a pool made from a request's solve answers it from that basis
    answers = []
    for problem in (framed, whole):
        pool = solved_pool([(problem, solve_lp(problem))])
        answers.append(solve_stacked([problem], pool=pool))
    assert_all_identical(*answers)
    assert answers[0][0].iterations == 0


def test_framed_and_full_lps_stack_together():
    framed = [requests_at(point)["long-run primal"] for point in POINTS]
    assert len({p._frame.layout(p.b) for p in framed}) == 1
    batch = framed + [full(r) for r in framed]
    batch = (batch * 8)[:8]
    assert_all_identical(solve_stacked(batch), [solve_lp(p) for p in batch])


def test_lps_built_directly_share_bases_only_with_themselves(tableaux):
    framed = [requests_at(point)["long-run primal"] for point in ("interior", "boundary")]
    assert framed[0]._frame is framed[1]._frame
    assert len({p._frame.layout(p.b) for p in framed}) == 1
    # the atlas certifies the framed LP, not a copy with a frame of its own
    problem = framed[0]
    copy = full(problem)
    tableaux.clear()        # the long-run solves of requests_at
    got = solve_stacked([problem, copy], pool=cli.basis_atlas())
    assert got[0].iterations == 0
    assert tableaux == [copy]
    assert_identical(got[1], solve_lp(copy))


def test_dual_range_regions_with_their_own_matrices_stack_together():
    # the pinned dual regions (lp_oracle) of the frozen short-run LPs of a
    # d2 sweep: each region's last row is its own b, so every region has
    # its own A, frame and layout
    regions = []
    for d2 in np.linspace(3000.0, 13000.0, 8):
        params = SystemParams.from_values(**CANONICAL, d2=float(d2))
        frozen = build_srmc_primal(params, solve_lrmc(params).decision)
        regions.append(pinned_region(*next(lp.dual_ranges_step(
            frozen, range(frozen.n_rows), solution=solve_lp(frozen)))[:3]))
    problems = [end for ends in regions for end in ends]
    assert len({p.A.tobytes() for p in problems}) == len({id(p._frame) for p in problems}) \
        == len(regions)
    assert_all_identical(solve_stacked(problems), [solve_lp(p) for p in problems])


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
