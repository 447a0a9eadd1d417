"""Independent checking layer: slackness products and analytic-vs-LP diffs.

The LP is treated as ground truth and the embedded group table as the
system under test: a 12-variable LP can be checked by enumeration, a
41-row symbolic table cannot.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import AnalyticResult, analytic_solution, classify
from .lp import dual_value_ranges, solve_lp
from .model import (
    DualValues,
    LrmcSolve,
    PrimalDecision,
    SystemParams,
    build_lrmc_dual,
    build_lrmc_primal,
    extract_decision,
    extract_duals,
    feasibility_limit,
)
from .tolerances import current


@dataclass(frozen=True)
class SlacknessReport:
    max_residual: float
    passed: bool


def check_complementary_slackness(decision: PrimalDecision, duals: DualValues,
                                  params: SystemParams) -> SlacknessReport:
    """Evaluate all twenty pairing products of the primal/dual system.

    Ten price a primal variable against its dual constraint's slack, ten
    pair a dual variable with its primal constraint's slack.  Residuals
    are normalized termwise (money and quantity scales differ) as
    ``|s*y| / ((1+|s|)(1+|y|))``.
    """
    d, y, p = decision, duals, params
    pairs = []

    def cond(slack, dual):
        pairs.append((float(slack), float(dual)))

    # dual-side: variable times its dual constraint's slack
    for g in ("r", "f"):
        for t in (1, 2):
            cond(d.generation(g, t), y.lam(t) - y.beta(g, t) - p.cp(g))
    cond(d.i_r1, y.beta_r1 + y.beta_r2 - y.gamma_r1 - p.ci_r)
    cond(d.i_r2, y.beta_r2 - y.gamma_r2 - p.ci_r)
    cond(d.i_f1, y.beta_f1 + y.beta_f2 - y.gamma_f1 - p.ci_f)
    cond(d.i_f2, y.beta_f2 - y.gamma_f2 - p.ci_f)
    for t in (1, 2):
        cond(d.shed(t), y.lam(t) - p.cl)

    # primal-side: dual variable times its primal constraint's slack
    for t in (1, 2):
        bal = (d.generation("r", t) + d.generation("f", t) + d.shed(t)
               - p.demand[t - 1])
        cond(bal, y.lam(t))
    for g in ("r", "f"):
        for t in (1, 2):
            cond(d.capacity(g, t) - d.generation(g, t), y.beta(g, t))
    for g in ("r", "f"):
        for t in (1, 2):
            cond(p.m(g) - d.invested(g, t), y.gamma(g, t))

    worst = max(abs(s * v) / ((1.0 + abs(s)) * (1.0 + abs(v))) for s, v in pairs)
    return SlacknessReport(max_residual=worst, passed=worst <= current().slackness)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class CrossCheckReport:
    params: SystemParams
    gid: int
    boundary: bool
    checks: tuple
    passed: bool
    objective_lp: float
    objective_dual: float
    objective_analytic: float
    lambda_lp: tuple
    slackness: SlacknessReport
    analytic: AnalyticResult    # the closed form checked

    def failures(self):
        return tuple(c for c in self.checks if not c.passed)


def cross_check(params: SystemParams, *, lrmc: LrmcSolve = None) -> CrossCheckReport:
    """Run the analytic path and the LP path and diff them.

    Disagreements are the payload, not exceptions.  On boundary inputs the
    price comparison downgrades to interval containment, since the LP dual
    is then one point of a set.

    ``lrmc`` may carry the caller's long-run solve of the same ``params``
    (``solve_lrmc(params)``); its unperturbed primal optimum, decision
    and duals are then checked instead of solving the primal again.  The
    explicit dual LP is always solved here: strong duality against it is
    the independent check.
    """
    if lrmc is not None and lrmc.params != params:
        raise ValueError("cross_check was given a long-run solve of other parameters")
    tol = current()
    group = classify(params)
    analytic = analytic_solution(params, group)

    if lrmc is None:
        sol = solve_lp(build_lrmc_primal(params))
    else:
        sol = lrmc.lp_solution
    dual_sol = solve_lp(build_lrmc_dual(params))

    checks = []
    checks.append(CheckResult("lp-optimal", sol.optimal, sol.status))
    checks.append(CheckResult("dual-lp-optimal", dual_sol.optimal, dual_sol.status))

    zp = sol.objective if sol.optimal else float("nan")
    zd = dual_sol.objective if dual_sol.optimal else float("nan")
    gap = abs(zp - zd)
    checks.append(CheckResult(
        "strong-duality", gap <= tol.gap * (1.0 + abs(zp)),
        f"primal {zp:.10g} vs dual {zd:.10g}"))

    za = analytic.decision.total_cost(params)
    checks.append(CheckResult(
        "objective-agreement", abs(za - zp) <= tol.gap * (1.0 + abs(zp)),
        f"analytic {za:.10g} vs lp {zp:.10g}"))

    violation = analytic.decision.max_violation(params)
    checks.append(CheckResult(
        "analytic-feasible", violation <= feasibility_limit(params),
        f"max violation {violation:.3g}"))

    lam_lp = (float(sol.duals[0]), float(sol.duals[1])) if sol.optimal else (float("nan"),) * 2
    if not group.boundary:
        err = max(abs(lam_lp[0] - analytic.lrmc[0]),
                  abs(lam_lp[1] - analytic.lrmc[1]))
        checks.append(CheckResult(
            "lambda-agreement", err <= tol.lam_match,
            f"lp {lam_lp} vs analytic {analytic.lrmc}"))
    else:
        ok = True
        detail = []
        ranges = dual_value_ranges(build_lrmc_primal(params), ("balance_1", "balance_2"),
                                   solution=sol)
        for t, (lo, hi) in zip((1, 2), ranges):
            inside = lo - tol.lam_match <= analytic.lrmc[t - 1] <= hi + tol.lam_match
            ok = ok and inside
            detail.append(f"t{t}: {analytic.lrmc[t-1]:.6g} in [{lo:.6g}, {hi:.6g}]")
        checks.append(CheckResult("lambda-containment", ok, "; ".join(detail)))

    if lrmc is None:
        slackness = check_complementary_slackness(
            extract_decision(sol), extract_duals(sol), params)
    else:
        slackness = check_complementary_slackness(lrmc.decision, lrmc.duals, params)
    checks.append(CheckResult(
        "slackness", slackness.passed, f"max residual {slackness.max_residual:.3g}"))

    return CrossCheckReport(
        params=params,
        gid=group.gid,
        boundary=group.boundary,
        checks=tuple(checks),
        passed=all(c.passed for c in checks),
        objective_lp=zp,
        objective_dual=zd,
        objective_analytic=za,
        lambda_lp=lam_lp,
        slackness=slackness,
        analytic=analytic,
    )
