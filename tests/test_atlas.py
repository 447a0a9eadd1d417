"""The basis atlas: committed data that the tests derive again, and that
leaves ``sweep`` and ``selftest`` nothing to pivot.

``model.ATLAS`` lists, per frame and layout, a representative block (the
bases the solves of a ``sweep`` row reach at the groups' representative
points, in the order first reached) and an enumerated block (every other
basis whose right-hand-side and cost regions are both full-dimensional in
the model's domain, in column-index order).  ``atlas_enumeration`` derives
both from the model's frames alone.  Since every point of the domain lies
in one of those regions, the atlas certifies every LP and every dual
interval the two verbs ask for; only ``cross_check``'s explicit dual,
which is kept off the atlas on purpose, is pivoted.
"""

import dataclasses
import io

import numpy as np
import pytest

from genmargin import cli, lp, model
from genmargin.sampling import random_params

from atlas_enumeration import DIGITS, atlas_blocks, data_block, layout_of
from test_ties import TIES


def committed():
    """``model.ATLAS`` as :func:`atlas_blocks` gives it: ``(frame, negative
    mask, representative block, enumerated block)``, column tuples."""
    return [(frame, tuple(row == "1" for row in negative),
             *([tuple(DIGITS.index(digit) for digit in basis) for basis in block.split()]
               for block in blocks))
            for frame, negative, *blocks in model.ATLAS]


@pytest.fixture(scope="module")
def derived():
    return atlas_blocks()


def test_committed_atlas_is_derived_again(derived):
    assert committed() == derived
    # the script prints the committed literal
    assert data_block(derived) == data_block(committed())
    lrmc, *srmc = derived
    assert (len(lrmc[2]), len(lrmc[2]) + len(lrmc[3])) == (29, 119)
    assert (sum(len(first) for *_, first, _ in srmc),
            sum(len(first) + len(rest) for *_, first, rest in srmc)) == (14, 64)


def test_a_dropped_or_reordered_basis_is_caught(derived):
    for key in range(len(derived)):
        for block in (2, 3):
            if derived[key][block]:
                dropped = committed()
                del dropped[key][block][len(dropped[key][block]) // 2]
                assert dropped != derived
    swapped = committed()
    first = swapped[0][2]
    first[0], first[1] = first[1], first[0]
    assert swapped != derived


def test_atlas_is_made_without_a_tableau(tableaux):
    cli.basis_atlas.cache_clear()
    pool = cli.basis_atlas()
    assert not tableaux
    want = {layout_of(frame, negative): [block for block in (first, rest) if block]
            for frame, negative, first, rest in committed()}
    assert {layout: [[tuple(cols) for cols in bases.cols.tolist()] for bases in blocks]
            for layout, blocks in pool._blocks.items()} == want


@pytest.fixture
def pivoted(monkeypatch, tableaux):
    """``(built, own)``: of the requests offered to the atlas, the LPs a
    tableau is built for, and the range requests answered from their own
    basis (``lp._basis_ranges``)."""
    offered, own = [], []       # held, so that no later object takes an id
    real_stacked, real_ranges = lp.solve_stacked, lp._basis_ranges

    def stacked(requests, pool=None):
        if pool is not None:
            offered.extend(requests)
        return real_stacked(requests, pool)

    def basis_ranges(request):
        own.append(request)
        return real_ranges(request)

    def built():
        problems = {id(request) for request in offered}
        return [problem for problem in tableaux if id(problem) in problems]

    def fell():
        return [request for request in own if id(request) in {id(r) for r in offered}]

    monkeypatch.setattr(lp, "solve_stacked", stacked)
    monkeypatch.setattr(lp, "_basis_ranges", basis_ranges)
    return built, fell


def selftest_of(draws, monkeypatch):
    """``run_selftest`` fed ``draws`` as its scenarios; its output."""
    it = iter(draws)
    monkeypatch.setattr(cli, "random_params", lambda rng: next(it))
    out = io.StringIO()
    assert cli.run_selftest(0, len(draws), out=out) == cli.EXIT_OK
    return out.getvalue()


def test_selftest_pivots_only_the_explicit_dual(pivoted, tableaux):
    built, own = pivoted
    assert cli.run_selftest(11, 300, out=io.StringIO()) == cli.EXIT_OK
    assert built() == [] and own() == []
    assert len(tableaux) == 300     # cross_check's explicit dual, one per scenario


def test_rung_ties_pivot_nothing(pivoted, monkeypatch):
    built, own = pivoted
    assert f"pass {len(TIES)}/{len(TIES)}," in selftest_of(TIES, monkeypatch)
    assert built() == [] and own() == []


def test_zero_demand_pivots_no_lp(pivoted, monkeypatch):
    # every LP is certified; a range request is not, since the left end of
    # an empty period is -inf, which no basis gives (it is read off the
    # request's own basis)
    built, own = pivoted
    rng = np.random.default_rng(11)
    draws = [dataclasses.replace(params, **zero) for params in
             (random_params(rng) for _ in range(100))
             for zero in (dict(d1=0.0), dict(d2=0.0), dict(d1=0.0, d2=0.0))]
    assert f"pass {len(draws)}/{len(draws)}," in selftest_of(draws, monkeypatch)
    assert built() == []
    assert len(own()) == len(draws)


def test_threshold_grid_pivots_nothing(pivoted):
    # the README costs on the d1 x d2 grid 0, 1000, ..., 14000: every
    # capacity threshold is a grid point, and so is zero demand
    built, _ = pivoted
    params = model.SystemParams.from_values(ci_r=60, cp_r=1, m_r=3000, ci_f=82, cp_f=20,
                                            m_f=4000, cl=200, d1=0, d2=0)
    blocks = tuple(cli.SweepBlock(param, 0.0, 14000.0, 15) for param in ("d1", "d2"))
    rows = list(cli.sweep_rows(cli.ScenarioConfig(params, blocks, "csv", "")))
    assert len(rows) == 225 and sum(row[-1] for _, row in rows) == 115
    assert built() == []
