"""Prices are slopes: a marginal cost is the cost of one more unit.

Inside a group's region the closed-form decision is affine in the demands
and the total cost is linear in the decision, so the one-sided difference
quotients of ``analytic.decision.total_cost`` in ``d_t`` both equal the
group's long-run price ``analytic.lrmc[t]``.  This checks the table's
decision formulas against its price formulas, with no LP involved.
"""

import numpy as np
import pytest

from genmargin.groups import analytic_solution, classify, representative_params
from genmargin.model import PARAM_FIELDS, SystemParams
from genmargin.sampling import random_params


def _inputs():
    rng = np.random.default_rng(31)
    return ([representative_params(gid) for gid in range(1, 42)]
            + [random_params(rng) for _ in range(300)])


@pytest.mark.parametrize("period", [1, 2])
def test_long_run_price_is_both_one_sided_slopes(period):
    field = ("d1", "d2")[period - 1]
    seen = set()
    for params in _inputs():
        group = classify(params)
        analytic = analytic_solution(params, group)
        cost = analytic.decision.total_cost(params)
        # Every demand inequality of classify has a demand as its left side
        # and moves by the step at most, so a step of a quarter of the
        # margin stays inside the region.
        h = 0.25 * group.margin * max(1.0, min(params.d1, params.d2))
        price = analytic.lrmc[period - 1]
        for sign in (1.0, -1.0):
            values = {f: getattr(params, f) for f in PARAM_FIELDS}
            values[field] += sign * h
            moved = SystemParams.from_values(**values)
            # analytic_solution rejects the step if it left the group
            quotient = (analytic_solution(moved, group).decision.total_cost(moved)
                        - cost) / (sign * h)
            assert abs(quotient - price) <= 1e-7 * (1.0 + abs(price)), \
                (group.gid, period, sign, quotient, price)
        seen.add(group.gid)
    assert seen == set(range(1, 42))
