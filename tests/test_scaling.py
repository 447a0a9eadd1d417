"""Cross-checks at the edges of the intended magnitude envelope.

Capacities up to a few 1e4, unit costs from 1e-2 up to a few hundred:
money totals reach ~1e8, which is where the absolute tolerances must
still hold.
"""

import numpy as np

from genmargin.groups import ClassificationError, classify
from genmargin.model import ModelError, SystemParams, solve_lrmc
from genmargin.srmc import compute_srmc, predict_srmc_from_lrmc
from genmargin.verify import cross_check


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
            group = classify(params, tol_bound=margin)
        except (ModelError, ClassificationError):
            continue
        if group.boundary:
            continue
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
            cp = res.marginal_cp[t]
            want = params.cl if cp is None else predict_srmc_from_lrmc(
                res.lrmc[t], cp, params.cl)
            assert abs(want - res.resolved[t]) <= 1e-6 * scale, \
                (params, t, want, res.resolved[t])
