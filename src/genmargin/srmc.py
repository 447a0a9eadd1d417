"""Short-run marginal prices: detection, interval, and resolution.

With investments frozen at their optimum, a period whose capacity is
exactly exhausted makes the flow-balance dual degenerate: its coefficient
in the dual objective vanishes and the price can sit anywhere between the
marginal operating cost and the loadshed cost.  Slackening every capacity
bound by a small epsilon removes the tie; the resolved price is the
interval's lower endpoint, the marginal operating cost.

Three rules relate the long-run price of a period to its resolved
short-run price:

    lam == CP          ->  rule-CP        (srmc = CP)
    lam == CL          ->  rule-CL        (srmc = CL)
    CP < lam < CL      ->  rule-interior  (srmc = CP)

``predict_srmc_from_lrmc`` applies them directly; ``compute_srmc`` gets
the same numbers out of perturbed solves, so the two can be played against
each other as independent routes.

``resolved_step`` makes only the two solves a ``sweep`` row prints
(frozen, with its check against the long-run optimum, and perturbed);
``srmc_step``, behind ``compute_srmc``, adds the intervals and rules.
"""

from __future__ import annotations

import math

from .groups import AnalyticResult, analytic_solution, classify, merit_order
from .lp import dual_interval_has_width, dual_ranges_step, record, run_step
from .model import SystemParams, build_lrmc_primal, frozen_at, srmc_primal
from .tolerances import current

RULE_CP = "rule-CP"
RULE_CL = "rule-CL"
RULE_INTERIOR = "rule-interior"

#: Tolerance for matching a long-run price to CP or CL when labeling
#: rules.  Tighter than the general money tolerance so prices close to,
#: but distinct from, CL resolve the way the perturbed solve does.
RULE_TOL = 1e-7


class SrmcError(ValueError):
    pass


def default_epsilon(params: SystemParams) -> float:
    """Capacity slack used to resolve degeneracy.

    It leaves unchanged which options serve demand only where each demand
    is more than epsilon from a used-up capacity: ``random_params`` keeps
    its draws 2e-5 (relative) away, but ``run`` accepts any input, and
    nearer an edge the perturbed solve may serve the margin from an option
    the frozen build does not use, resolving to a price outside the dual
    interval, which ``run`` and ``selftest`` report as a failure.  Large
    enough to clear the degeneracy tolerance by many orders of magnitude.
    """
    return 1e-6 * max(params.d1, params.d2, 1.0)


@record()
class SrmcResult:
    intervals: tuple        # per-period (lo, hi) at epsilon = 0
    resolved: tuple         # per-period price from the perturbed solve
    epsilon: float
    rules: tuple            # per-period rule label
    degenerate: tuple       # per-period: interval has positive width
    lrmc: tuple             # the long-run pair the rules were read against
    marginal_cp: tuple      # per-period marginal operating cost (None if all shed)
    merit: tuple            # per-period merit-order interval (groups.merit_order)


def predict_srmc_from_lrmc(lrmc_t: float, marginal_cp_t: float, cl: float) -> float:
    """Map one period's long-run price to its short-run price by rule.

    ``marginal_cp_t`` None (the period sheds completely, as
    ``SrmcResult.marginal_cp`` says) gives ``float(cl)``: the next unit of
    an all-shed period is shed too."""
    if marginal_cp_t is None:
        return float(cl)
    if marginal_cp_t > cl + RULE_TOL:
        raise SrmcError("marginal operating cost exceeds the loadshed cost")
    price = _rule(lrmc_t, marginal_cp_t, cl)[1]
    if price is None:
        raise SrmcError(f"long-run price {lrmc_t} outside [{marginal_cp_t}, {cl}]: "
                        "classifier/profile mismatch")
    return price


def _rule(lrmc_t, cp_t, cl):
    """``(label, short-run price)`` of the rule that maps ``lrmc_t`` given
    the marginal operating cost ``cp_t`` (None if the period sheds
    completely); the price is None where no rule applies, and the label
    then ``rule-interior``.  A tie of ``cp_t`` and ``cl`` goes to CP."""
    if cp_t is not None and abs(lrmc_t - cp_t) <= RULE_TOL:
        return RULE_CP, float(cp_t)
    if abs(lrmc_t - cl) <= RULE_TOL:
        return RULE_CL, float(cl)
    if cp_t is not None and cp_t < lrmc_t < cl:
        return RULE_INTERIOR, float(cp_t)
    return RULE_INTERIOR, None


def compute_srmc(params: SystemParams, istar, *, epsilon: float = None,
                 lrmc_objective: float = None,
                 analytic: AnalyticResult = None) -> SrmcResult:
    """Solve the short-run model, record dual intervals, resolve by epsilon.

    ``istar`` must be the investment part of an optimal long-run decision;
    this is verified by comparing against the long-run optimum (re-solved
    here unless the caller passes a known, finite ``lrmc_objective``), and
    inputs that fail it are rejected.  ``analytic`` may carry the caller's
    closed form for these ``params`` (``analytic_solution(params,
    classify(params))``); it is classified and evaluated here otherwise.

    The rules and ``marginal_cp`` are read against the closed form's build
    and long-run prices, not against ``istar``.  So pass the closed form's
    build, ``analytic_solution(params, classify(params)).decision``, as
    every verb and the README quick start do.  Off cost ties it is the
    only optimal build.  At an exact tie (``cl`` on a rung of the cost
    ladder, or zero demand) another optimal vertex, such as
    ``solve_lrmc(params).decision``, passes the optimality check but may
    resolve to prices that break the rules: 190 of the 600 ties of
    ``tests/test_ties.py`` do.
    """
    return run_step(srmc_step(params, istar, epsilon=epsilon,
                              lrmc_objective=lrmc_objective, analytic=analytic))


def srmc_step(params: SystemParams, istar, *, epsilon: float = None,
              lrmc_objective: float = None, analytic: AnalyticResult = None):
    """:func:`compute_srmc` as a step that yields its LP requests (see
    :func:`~genmargin.lp.run_lockstep`): :func:`resolved_step`'s two solves
    with the dual intervals of the frozen model between them.  As there,
    the rules are read against the closed form's build, so ``istar``
    should be that build."""
    eps = default_epsilon(params) if epsilon is None else float(epsilon)
    if not 0 < eps < math.inf:      # NaN fails too
        raise SrmcError(f"epsilon must be positive and finite to resolve degeneracy, "
                        f"got {eps!r}")

    if lrmc_objective is None:
        lr_sol = yield build_lrmc_primal(params)
        z_star = lr_sol.objective
    else:
        z_star = float(lrmc_objective)
    frozen, lp0, sol0 = yield from _frozen_step(params, istar, z_star)
    intervals = yield from dual_ranges_step(lp0, ("balance_1", "balance_2"), solution=sol0)
    degenerate = tuple(dual_interval_has_width(lo, hi) for lo, hi in intervals)
    resolved = yield from _perturbed_step(params, frozen, eps)

    if analytic is None:
        analytic = analytic_solution(params, classify(params))
    cps, merit = zip(*(merit_order(params, analytic.decision, t) for t in (1, 2)))
    rules = tuple(_rule(lam, cp, params.cl)[0] for lam, cp in zip(analytic.lrmc, cps))
    return SrmcResult(
        intervals=intervals,
        resolved=resolved,
        epsilon=eps,
        rules=rules,
        degenerate=degenerate,
        lrmc=analytic.lrmc,
        marginal_cp=cps,
        merit=merit,
    )


def resolved_step(params: SystemParams, istar, z_star: float):
    """The resolved pair of :func:`srmc_step` at the default epsilon, as a
    step, without the dual intervals: the frozen solve, its check against
    the long-run optimum ``z_star``, and the perturbed solve."""
    eps = default_epsilon(params)
    frozen = (yield from _frozen_step(params, istar, z_star))[0]
    return (yield from _perturbed_step(params, frozen, eps))


def _frozen_step(params, istar, z_star):
    """``(frozen, frozen LP, its optimum)`` at epsilon 0, with ``frozen``
    ``model.frozen_at(params, istar)``: ``istar`` checked and its offset
    computed once, after ``z_star``, for the frozen and the perturbed LP.
    Rejects a ``z_star`` that is not finite, then an ``istar`` that
    ``frozen_at`` rejects, then one whose short-run cost is not the
    long-run optimum ``z_star``."""
    if not math.isfinite(z_star):
        raise SrmcError(f"long-run optimum must be finite, got {z_star!r}")
    frozen = frozen_at(params, istar)
    lp0 = srmc_primal(params, frozen, 0.0)
    sol0 = yield lp0
    if not sol0.optimal:
        raise SrmcError(f"short-run model {sol0.status}")
    if abs(sol0.objective - z_star) > current().gap * (1.0 + abs(z_star)):
        raise SrmcError(
            f"istar is not an optimal investment plan "
            f"(short-run cost {sol0.objective:g} vs long-run optimum {z_star:g})"
        )
    return frozen, lp0, sol0


def _perturbed_step(params, frozen, eps):
    """The balance duals of the short-run model at ``frozen``
    (:func:`_frozen_step`), every capacity + ``eps``."""
    perturbed = yield srmc_primal(params, frozen, eps)
    if not perturbed.optimal:
        raise SrmcError(f"perturbed short-run model {perturbed.status}")
    return (float(perturbed.duals[0]), float(perturbed.duals[1]))
