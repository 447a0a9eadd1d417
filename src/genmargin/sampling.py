"""Random valid parameter sets for sweeps and self-tests.

Costs are drawn log-uniform, demands uniform over [0, 2(M_r + M_f)].
Draws are rejected until the standing cost orderings hold and the point
is comfortably interior: a draw is kept only where the relative margin
``classify`` returns exceeds ``INTERIOR_MARGIN``, safely above the
capacity slack of the short-run resolution (``srmc.default_epsilon``),
so strict-equality assertions stay meaningful.

Most attempts fail the cost ladder, so the four costs of a block of
attempts are drawn at once: one ``rng.uniform`` over a ``(block, 4)``
array, one ``np.exp``, and the ladder tested on the whole block.  That
gives each attempt exactly the doubles, and the costs, that one scalar
draw after another would.  At the first attempt that passes, the
generator is rewound to its state before the block and re-draws exactly
the ``4 * (attempts so far)`` doubles, so the capacities, loadshed cost
and demands that follow come from the same place in the stream as in a
scalar loop.  Re-drawing, unlike ``advance``, works for every bit
generator, so the stream is the same for all of them.
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


# Log bounds of the cost ranges (ci_r, ci_f, cp_r, cp_f, in draw order)
# and of the capacity range, taken once.
_COST_LO, _COST_HI = (np.array(bounds) for bounds in zip(
    _log_range(5.0, 120.0), _log_range(5.0, 240.0),
    _log_range(0.2, 25.0), _log_range(0.2, 50.0)))
_CAP = _log_range(300.0, 8000.0)

#: Attempts before :func:`random_params` gives up.
_MAX_DRAWS = 100_000

#: Attempts whose costs are drawn and tested at once.  About one attempt
#: in twenty passes the cost ladder, so a block of 64 rarely comes up
#: empty and rarely draws much past the attempt that passes.
_BLOCK = 64


def _ladder_holds(ci_r, ci_f, cp_r, cp_f):
    """Per attempt: the standing cost orderings and the strict cost ladder
    (shared fossil below non-shared renewable), with room to spare."""
    t_sr = ci_r / 2 + cp_r
    t_sf = ci_f / 2 + cp_f
    t_r = ci_r + cp_r
    t_f = ci_f + cp_f
    return ((ci_r < ci_f) & (cp_r < cp_f)
            & (t_r - t_sf > INTERIOR_MARGIN * np.maximum(1.0, t_r))
            & (np.minimum(t_sf - t_sr, t_f - t_r) > INTERIOR_MARGIN * np.maximum(1.0, t_f)))


def random_params(rng) -> SystemParams:
    """One valid, interior parameter set."""
    attempts = 0
    while attempts < _MAX_DRAWS:
        block = min(_BLOCK, _MAX_DRAWS - attempts)
        start = rng.bit_generator.state
        costs = np.exp(rng.uniform(_COST_LO, _COST_HI, size=(block, 4)))
        passing = np.flatnonzero(_ladder_holds(*costs.T))
        if not passing.size:
            attempts += block
            continue
        i = int(passing[0])
        attempts += i + 1
        rng.bit_generator.state = start
        rng.random(4 * (i + 1))
        ci_r, ci_f, cp_r, cp_f = costs[i].tolist()
        t_sr = ci_r / 2 + cp_r
        t_f = ci_f + cp_f
        m_r = _loguniform(rng, _CAP)
        m_f = _loguniform(rng, _CAP)
        cl = _loguniform(rng, _log_range(0.4 * t_sr, 2.5 * t_f))
        d1 = float(rng.uniform(0.0, 2.0 * (m_r + m_f)))
        d2 = float(rng.uniform(0.0, 2.0 * (m_r + m_f)))
        params = SystemParams.from_values(ci_r, cp_r, m_r, ci_f, cp_f, m_f,
                                          cl, d1, d2)
        if classify(params).margin > INTERIOR_MARGIN:
            return params
    raise RuntimeError("could not sample an interior parameter set")

