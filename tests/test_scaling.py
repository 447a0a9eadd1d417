"""Cross-checks at the edges of the intended magnitude envelope.

Capacities up to a few 1e4, unit costs from 1e-2 up to a few hundred:
money totals reach ~1e8, which is where the absolute tolerances must
still hold.
"""

import dataclasses

import numpy as np
import pytest

from genmargin import tolerances
from genmargin.groups import ClassificationError, classify
from genmargin.lp import solve_lp, solve_stacked
from genmargin.model import ModelError, SystemParams, build_srmc_primal, lrmc_step, solve_lrmc
from genmargin.sampling import random_params
from genmargin.srmc import compute_srmc, predict_srmc_from_lrmc
from genmargin.verify import cross_check

COSTS = ("ci_r", "cp_r", "ci_f", "cp_f", "cl")


def _extreme_params(rng, margin=1e-4):
    while True:
        mag = 10.0 ** rng.uniform(-2, 2.5)
        ci_r = mag * rng.uniform(0.5, 2)
        ci_f = ci_r * rng.uniform(1.2, 3)
        cp_r = mag * rng.uniform(0.005, 0.3)
        cp_f = cp_r * rng.uniform(1.2, 3)
        t_sf, t_r = ci_f / 2 + cp_f, ci_r + cp_r
        if t_r - t_sf <= margin * max(1.0, t_r):
            continue
        cap_mag = 10.0 ** rng.uniform(1, 4.3)
        m_r = cap_mag * rng.uniform(0.5, 2)
        m_f = cap_mag * rng.uniform(0.5, 2)
        cl = (ci_r / 2 + cp_r) * 10.0 ** rng.uniform(-0.5, 1.2)
        d1 = rng.uniform(0, 2 * (m_r + m_f))
        d2 = rng.uniform(0, 2 * (m_r + m_f))
        try:
            params = SystemParams.from_values(ci_r, cp_r, m_r, ci_f, cp_f,
                                              m_f, cl, d1, d2)
            group = classify(params)
        except (ModelError, ClassificationError):
            continue
        if group.margin > margin:
            return params


def test_cross_check_at_extreme_scales():
    rng = np.random.default_rng(77)
    for _ in range(150):
        params = _extreme_params(rng)
        rep = cross_check(params)
        assert rep.passed, (params, rep.failures())


def test_srmc_agreement_at_extreme_scales():
    rng = np.random.default_rng(78)
    for _ in range(100):
        params = _extreme_params(rng)
        lr = solve_lrmc(params)
        res = compute_srmc(params, lr.decision, lrmc_objective=lr.objective)
        scale = 1.0 + abs(params.cl)
        for t in (0, 1):
            want = predict_srmc_from_lrmc(res.lrmc[t], res.marginal_cp[t], params.cl)
            assert abs(want - res.resolved[t]) <= 1e-6 * scale, \
                (params, t, want, res.resolved[t])


@pytest.mark.parametrize("alpha", [1e7, 1e8])
def test_model_lps_stay_feasible_at_large_cost_scales(alpha):
    # Scaling every cost by alpha leaves each LP's feasible region as it is
    # and scales its optimum by alpha: phase 1 must not read the costs.
    gap = tolerances.current().gap
    rng = np.random.default_rng(7)
    requests, want = [], []
    for _ in range(100):
        params = random_params(rng)
        lr = solve_lrmc(params)
        frozen = build_srmc_primal(params, lr.decision)
        scaled = dataclasses.replace(params, **{k: alpha * getattr(params, k) for k in COSTS})
        requests += [next(lrmc_step(scaled)),
                     build_srmc_primal(scaled, lr.decision)]
        want += [alpha * lr.objective, alpha * solve_lp(frozen).objective]
    stacked = solve_stacked(requests)
    for request, z, outcome in zip(requests, want, stacked):
        for got in (solve_lp(request), outcome):
            assert got.status == "optimal"
            assert abs(got.objective - z) <= gap * (1.0 + abs(z))
