"""Independent checking layer: slackness products and analytic-vs-LP diffs.

The LP is treated as ground truth and the embedded group table as the
system under test: a 12-variable LP can be checked by enumeration, a
41-row symbolic table cannot.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import AnalyticResult, analytic_solution, classify
from .lp import dual_value_ranges, record, solve_lp
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


@record()
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

    The pairs, in order: each generation ``P_gt`` (r1, r2, f1, f2), each
    investment ``I_gt`` (the same order) and each shed ``L_t`` against its
    dual row's slack; then each balance row against ``lam_t``, each
    capacity row against ``beta_gt`` and each build cap against
    ``gamma_gt``.
    """
    d, y, p = decision, duals, params
    lam_1, lam_2, beta_r1, beta_r2, beta_f1, beta_f2 = (
        y.lam_1, y.lam_2, y.beta_r1, y.beta_r2, y.beta_f1, y.beta_f2)
    i_r1, i_r2, i_f1, i_f2, p_r1, p_r2, p_f1, p_f2 = (
        d.i_r1, d.i_r2, d.i_f1, d.i_f2, d.p_r1, d.p_r2, d.p_f1, d.p_f2)
    pairs = (
        # dual-side: variable times its dual constraint's slack
        (p_r1, lam_1 - beta_r1 - p.cp_r), (p_r2, lam_2 - beta_r2 - p.cp_r),
        (p_f1, lam_1 - beta_f1 - p.cp_f), (p_f2, lam_2 - beta_f2 - p.cp_f),
        (i_r1, beta_r1 + beta_r2 - y.gamma_r1 - p.ci_r), (i_r2, beta_r2 - y.gamma_r2 - p.ci_r),
        (i_f1, beta_f1 + beta_f2 - y.gamma_f1 - p.ci_f), (i_f2, beta_f2 - y.gamma_f2 - p.ci_f),
        (d.l_1, lam_1 - p.cl), (d.l_2, lam_2 - p.cl),
        # primal-side: dual variable times its primal constraint's slack
        (p_r1 + p_f1 + d.l_1 - p.d1, lam_1), (p_r2 + p_f2 + d.l_2 - p.d2, lam_2),
        (i_r1 - p_r1, beta_r1), (i_r1 + i_r2 - p_r2, beta_r2),
        (i_f1 - p_f1, beta_f1), (i_f1 + i_f2 - p_f2, beta_f2),
        (p.m_r - i_r1, y.gamma_r1), (p.m_r - i_r2, y.gamma_r2),
        (p.m_f - i_f1, y.gamma_f1), (p.m_f - i_f2, y.gamma_f2),
    )
    worst = float(max(abs(s * v) / ((1.0 + abs(s)) * (1.0 + abs(v))) for s, v in pairs))
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
