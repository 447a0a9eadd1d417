"""The merit order: the short-run dual intervals by a route with no LP.

At a frozen build the short-run LP splits into one merit-order dispatch
per period, and the interval of a period's balance dual is the
subdifferential of that period's cost in its demand
(``groups.merit_order``).  It must equal the LP's interval end for end:
read off the frozen solve's own basis (``lp.dual_value_ranges``), and off
the atlas bases where ``selftest`` certifies it.  The draws are those of
two seeds, with their zero-demand variants and ``cl`` at each rung of the
cost ladder, where the build is frozen at the closed form's.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from genmargin import cli, groups
from genmargin.groups import analytic_solution, classify, merit_order
from genmargin.lp import dual_interval_has_width, dual_ranges_step, solve_lp, solve_stacked
from genmargin.model import PARAM_FIELDS, SystemParams, build_srmc_primal
from genmargin.sampling import random_params

from lp_oracle import same_ends


def variants(params):
    """``params``, its zero-demand variants and ``cl`` at each ladder rung."""
    return ([params] + [dataclasses.replace(params, **zero) for zero in
                        (dict(d1=0.0), dict(d2=0.0), dict(d1=0.0, d2=0.0))]
            + [dataclasses.replace(params, cl=rung) for rung in groups._values(params)[9:]])


def frozen_request(params):
    """``(range request of both balance rows, merit intervals)`` of the
    short-run LP frozen at the closed form's build."""
    decision = analytic_solution(params, classify(params)).decision
    frozen = build_srmc_primal(params, decision)
    request = next(dual_ranges_step(frozen, ("balance_1", "balance_2"),
                                    solution=solve_lp(frozen)))
    return request, tuple(merit_order(params, decision, t)[1] for t in (1, 2))


@pytest.mark.parametrize("seed", [11, 42])
def test_lp_intervals_are_the_merit_order(seed):
    rng = np.random.default_rng(seed)
    requests, merits = zip(*(frozen_request(p) for _ in range(120)
                             for p in variants(random_params(rng))))
    pool = cli.basis_atlas()
    for pooled, plain, request, merit in zip(solve_stacked(requests, pool=pool),
                                             solve_stacked(requests), requests, merits):
        assert same_ends(plain, merit, 1e-9), (request.problem.b, plain, merit)
        assert same_ends(pooled, merit, 1e-9), (request.problem.b, pooled, merit)
    ends = [end for merit in merits for interval in merit for end in interval]
    assert sum(dual_interval_has_width(*interval) for merit in merits
               for interval in merit) >= 0.3 * 2 * len(merits)
    assert -math.inf in ends
    # the right end is not always cl: the next unit is served below it
    assert sum(hi < request.problem.c[4] for request, merit in zip(requests, merits)
               for _, hi in merit) >= 100


def test_left_end_is_not_marginal_cp():
    # group 5: period 2 runs the whole renewable build and sheds the rest,
    # so its last unit costs cl, while its marginal_cp (merit_order's cp)
    # names renewable
    params = groups.representative_params(5)
    decision = analytic_solution(params, classify(params)).decision
    assert decision.l_2 > 0 and decision.p_r2 > 0
    assert merit_order(params, decision, 2) == (params.cp_r, (params.cl, params.cl))


#: A near-edge input (``d1`` a relative 3e-7 above ``m_r``, group 12)
#: whose pinned dual region once ended on a singular basis, so that
#: ``run`` printed ``error: Singular matrix`` and exited 1.  Its capacity
#: slack is larger than its gap to the edge, so the perturbed solve
#: resolves both periods to ``cp_r``, outside their intervals, and ``run``
#: exits 2.
SINGULAR_REGION = dict(ci_r=104.73413462141616, cp_r=0.743614521369631,
                       m_r=3712.8040235140497, ci_f=111.88740800938439,
                       cp_f=1.9819182770549872, m_f=566.4783060072248,
                       cl=239.50673255873818, d1=3712.8051373552566, d2=5415.762985298079)


def test_singular_region_example_runs(tmp_path, capsys):
    config = tmp_path / "edge.json"
    config.write_text(json.dumps(dict(SINGULAR_REGION, output={"format": "json"})))
    assert cli.main(["run", str(config)]) == cli.EXIT_VERIFICATION
    rep = json.loads(capsys.readouterr().out)
    params = SystemParams.from_values(**{f: SINGULAR_REGION[f] for f in PARAM_FIELDS})
    decision = analytic_solution(params, classify(params)).decision
    assert rep["srmc"]["intervals"] == [list(merit_order(params, decision, t)[1])
                                        for t in (1, 2)]
    assert rep["srmc"]["intervals"] == [[params.cp_f, params.cl]] * 2


#: A near-edge input (``d1 = m_r (1 + 1e-8)``, group 28): the closed form
#: builds ``I_f1`` = 6.26e-6, but the capacity slack is 6.26e-4, so the
#: perturbed solve serves period 1 from renewable alone.
NEAR_EDGE = dict(ci_r=88.16093264009484, cp_r=2.1298129465254902, m_r=625.5131988280517,
                 ci_f=90.0969067000094, cp_f=7.3163536931735225, m_f=1235.712189689935,
                 cl=148.26330093659365, d1=625.5132050831837, d2=553.0779397286458)


def test_near_edge_price_outside_its_interval_fails_run(tmp_path, capsys):
    # the report is printed as it is, cross-check pass included, but the
    # period-1 price lies outside its own interval, so run exits 2
    config = tmp_path / "edge.json"
    config.write_text(json.dumps(dict(NEAR_EDGE, output={"format": "json"})))
    assert cli.main(["run", str(config)]) == cli.EXIT_VERIFICATION
    captured = capsys.readouterr()
    rep = json.loads(captured.out)
    assert rep["group"] == 28 and rep["cross_check"]["passed"]
    assert rep["srmc"]["intervals"][0] == [NEAR_EDGE["cp_f"], NEAR_EDGE["cl"]]
    assert rep["srmc"]["resolved"][0] == NEAR_EDGE["cp_r"]
    assert captured.err.startswith("FAIL: a short-run price is off its rule")
