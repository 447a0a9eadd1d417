"""Model records as vectors, and the long-run dual's feasibility, for tests.

Only tests read a ``PrimalDecision`` or ``DualValues`` as one array, or
measure how far a ``DualValues`` is from the long-run dual's feasible set.
"""

import numpy as np

from genmargin.model import DUAL_VAR_ORDER, VAR_ORDER


def decision_vector(decision) -> np.ndarray:
    """A ``PrimalDecision`` in ``VAR_ORDER``."""
    return np.array([getattr(decision, name.lower()) for name in VAR_ORDER])


def dual_vector(duals) -> np.ndarray:
    """A ``DualValues`` in ``DUAL_VAR_ORDER``."""
    return np.array([getattr(duals, name) for name in DUAL_VAR_ORDER])


def max_dual_violation(duals, params) -> float:
    """Largest violation by ``duals`` of the long-run dual's rows and signs
    at ``params`` (0 when feasible)."""
    v = [-min(x, 0.0) for x in dual_vector(duals)[2:]]     # beta, gamma >= 0
    for t in (1, 2):
        for g in ("r", "f"):
            v.append(duals.lam(t) - duals.beta(g, t) - params.cp(g))
        v.append(duals.lam(t) - params.cl)
    v.append(duals.beta_r1 + duals.beta_r2 - duals.gamma_r1 - params.ci_r)
    v.append(duals.beta_r2 - duals.gamma_r2 - params.ci_r)
    v.append(duals.beta_f1 + duals.beta_f2 - duals.gamma_f1 - params.ci_f)
    v.append(duals.beta_f2 - duals.gamma_f2 - params.ci_f)
    return max(max(v), 0.0)
