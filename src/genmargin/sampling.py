"""Random valid parameter sets for sweeps and self-tests.

Costs are drawn log-uniform, demands uniform over [0, 2(M_r + M_f)].
Draws are rejected until the standing cost orderings hold and the point
is comfortably interior: classification boundaries are resampled at a
margin safely above the capacity perturbation used by the short-run
resolution, so strict-equality assertions stay meaningful.
"""

from __future__ import annotations

import numpy as np

from .groups import classify
from .model import SystemParams

#: Relative interior margin required of sampled points.  Chosen about an
#: order of magnitude above the default short-run perturbation scale so a
#: perturbed solve can never jump a regime edge.
INTERIOR_MARGIN = 2e-5


def _log_range(lo, hi) -> tuple:
    return float(np.log(lo)), float(np.log(hi))


def _loguniform(rng, log_range):
    return float(np.exp(rng.uniform(*log_range)))


# Log bounds of the fixed ranges, taken once: most draws fail the cost
# ladder, so a returned set takes ~80 log-uniform draws.
_CI_R = _log_range(5.0, 120.0)
_CI_F = _log_range(5.0, 240.0)
_CP_R = _log_range(0.2, 25.0)
_CP_F = _log_range(0.2, 50.0)
_CAP = _log_range(300.0, 8000.0)


def random_params(rng, *, margin: float = INTERIOR_MARGIN,
                  max_tries: int = 100_000) -> SystemParams:
    """One valid, interior parameter set."""
    for _ in range(max_tries):
        ci_r = _loguniform(rng, _CI_R)
        ci_f = _loguniform(rng, _CI_F)
        cp_r = _loguniform(rng, _CP_R)
        cp_f = _loguniform(rng, _CP_F)
        if not (ci_r < ci_f and cp_r < cp_f):
            continue
        t_sr = ci_r / 2 + cp_r
        t_sf = ci_f / 2 + cp_f
        t_r = ci_r + cp_r
        t_f = ci_f + cp_f
        # strict ladder: shared fossil below non-shared renewable, with room
        if t_r - t_sf <= margin * max(1.0, t_r):
            continue
        if min(t_sf - t_sr, t_f - t_r) <= margin * max(1.0, t_f):
            continue
        m_r = _loguniform(rng, _CAP)
        m_f = _loguniform(rng, _CAP)
        cl = _loguniform(rng, _log_range(0.4 * t_sr, 2.5 * t_f))
        d1 = float(rng.uniform(0.0, 2.0 * (m_r + m_f)))
        d2 = float(rng.uniform(0.0, 2.0 * (m_r + m_f)))
        params = SystemParams.from_values(ci_r, cp_r, m_r, ci_f, cp_f, m_f,
                                          cl, d1, d2)
        group = classify(params, tol_bound=margin)
        if group.boundary:
            continue
        return params
    raise RuntimeError("could not sample an interior parameter set")

