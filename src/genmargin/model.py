"""The four concrete LPs of the two-technology, two-period expansion model.

Variable ordering is fixed and documented so downstream extraction and
golden files stay stable:

    (I_r1, I_r2, I_f1, I_f2, P_r1, P_r2, P_f1, P_f2, L_1, L_2)

Row ordering of the long-run primal:

    (balance_1, balance_2, cap_r1, cap_r2, cap_f1, cap_f2,
     invest_r1, invest_r2, invest_f1, invest_f2)

The short-run primal drops the investment variables and bound rows:
variables (P_r1, P_r2, P_f1, P_f2, L_1, L_2), rows (balance_1, balance_2,
cap_r1, cap_r2, cap_f1, cap_f2).  Its objective keeps the constant
invested-cost term so objective values stay comparable with the long-run
model; duals are unaffected by constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lp import EQ, GE, LE, LinearProgram, LpRequest, LpSolution, run_step
from .tolerances import DEFAULT

VAR_ORDER = ("I_r1", "I_r2", "I_f1", "I_f2",
             "P_r1", "P_r2", "P_f1", "P_f2", "L_1", "L_2")
LRMC_ROW_ORDER = ("balance_1", "balance_2", "cap_r1", "cap_r2", "cap_f1",
                  "cap_f2", "invest_r1", "invest_r2", "invest_f1", "invest_f2")
SRMC_VAR_ORDER = ("P_r1", "P_r2", "P_f1", "P_f2", "L_1", "L_2")
SRMC_ROW_ORDER = ("balance_1", "balance_2", "cap_r1", "cap_r2", "cap_f1", "cap_f2")
DUAL_VAR_ORDER = ("lam_1", "lam_2", "beta_r1", "beta_r2", "beta_f1", "beta_f2",
                  "gamma_r1", "gamma_r2", "gamma_f1", "gamma_f2")


class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class GeneratorTech:
    """One technology: investment cost, operating cost, per-period build cap."""

    tech_id: str
    invest_cost: float
    operating_cost: float
    max_capacity: float
    lifetime: int = 2

    def __post_init__(self):
        if self.tech_id not in ("r", "f"):
            raise ModelError(f"tech_id must be 'r' or 'f', got {self.tech_id!r}")
        if self.invest_cost < 0 or self.operating_cost < 0:
            raise ModelError("costs must be nonnegative")
        if not self.max_capacity > 0:
            raise ModelError("max investable capacity must be positive")
        # The closed-form results exist only for a two-period lifetime, where
        # period-1 capacity serves both periods.  Hard requirement.
        if self.lifetime != 2:
            raise ModelError("lifetime must be 2")


@dataclass(frozen=True)
class SystemParams:
    """All nine model parameters.

    Standing assumption: the fossil technology is dearer on both cost
    components (CI_r < CI_f and CP_r < CP_f).
    """

    renewable: GeneratorTech
    fossil: GeneratorTech
    loadshed_cost: float
    demand: tuple

    def __post_init__(self):
        if self.renewable.tech_id != "r" or self.fossil.tech_id != "f":
            raise ModelError("renewable/fossil tech_id mismatch")
        if not self.renewable.invest_cost < self.fossil.invest_cost:
            raise ModelError("requires CI_r < CI_f")
        if not self.renewable.operating_cost < self.fossil.operating_cost:
            raise ModelError("requires CP_r < CP_f")
        if not self.loadshed_cost > 0:
            raise ModelError("loadshed cost must be positive")
        d = tuple(float(v) for v in self.demand)
        if len(d) != 2 or d[0] < 0 or d[1] < 0:
            raise ModelError("demand must be two nonnegative values")
        object.__setattr__(self, "demand", d)

    @classmethod
    def from_values(cls, ci_r, cp_r, m_r, ci_f, cp_f, m_f, cl, d1, d2):
        return cls(
            renewable=GeneratorTech("r", float(ci_r), float(cp_r), float(m_r)),
            fossil=GeneratorTech("f", float(ci_f), float(cp_f), float(m_f)),
            loadshed_cost=float(cl),
            demand=(float(d1), float(d2)),
        )

    # short names mirroring the model's symbols
    @property
    def ci_r(self):
        return self.renewable.invest_cost

    @property
    def cp_r(self):
        return self.renewable.operating_cost

    @property
    def m_r(self):
        return self.renewable.max_capacity

    @property
    def ci_f(self):
        return self.fossil.invest_cost

    @property
    def cp_f(self):
        return self.fossil.operating_cost

    @property
    def m_f(self):
        return self.fossil.max_capacity

    @property
    def cl(self):
        return self.loadshed_cost

    @property
    def d1(self):
        return self.demand[0]

    @property
    def d2(self):
        return self.demand[1]

    def tech(self, g):
        return self.renewable if g == "r" else self.fossil

    def cp(self, g):
        return self.tech(g).operating_cost

    def ci(self, g):
        return self.tech(g).invest_cost


@dataclass(frozen=True)
class PrimalDecision:
    """(I, P, L) in model coordinates."""

    i_r1: float
    i_r2: float
    i_f1: float
    i_f2: float
    p_r1: float
    p_r2: float
    p_f1: float
    p_f2: float
    l_1: float
    l_2: float

    def invested(self, g, t):
        return getattr(self, f"i_{g}{t}")

    def generation(self, g, t):
        return getattr(self, f"p_{g}{t}")

    def shed(self, t):
        return getattr(self, f"l_{t}")

    def capacity(self, g, t):
        """Installed capacity available to g in period t (lifetime 2)."""
        return self.invested(g, 1) + (self.invested(g, 2) if t == 2 else 0.0)

    def as_vector(self):
        return np.array([getattr(self, f.lower()) for f in
                         ("i_r1", "i_r2", "i_f1", "i_f2", "p_r1", "p_r2",
                          "p_f1", "p_f2", "l_1", "l_2")])

    def investments(self):
        return (self.i_r1, self.i_r2, self.i_f1, self.i_f2)

    def total_cost(self, params: SystemParams) -> float:
        return (
            params.ci_r * (self.i_r1 + self.i_r2)
            + params.ci_f * (self.i_f1 + self.i_f2)
            + params.cp_r * (self.p_r1 + self.p_r2)
            + params.cp_f * (self.p_f1 + self.p_f2)
            + params.cl * (self.l_1 + self.l_2)
        )

    def max_violation(self, params: SystemParams) -> float:
        """Largest constraint violation (0 when feasible)."""
        v = [-min(x, 0.0) for x in self.as_vector()]
        for t in (1, 2):
            d = params.demand[t - 1]
            bal = self.generation("r", t) + self.generation("f", t) + self.shed(t) - d
            v.append(abs(bal))
            for g in ("r", "f"):
                v.append(self.generation(g, t) - self.capacity(g, t))
                v.append(self.invested(g, t) - params.tech(g).max_capacity)
        return max(max(v), 0.0)

    def is_feasible(self, params, tol=None):
        tol = DEFAULT.feas if tol is None else tol
        scale = 1.0 + max(params.d1, params.d2, params.m_r, params.m_f)
        return self.max_violation(params) <= tol * scale


@dataclass(frozen=True)
class DualValues:
    """(lambda, beta, gamma): prices, capacity values, opportunity costs."""

    lam_1: float
    lam_2: float
    beta_r1: float
    beta_r2: float
    beta_f1: float
    beta_f2: float
    gamma_r1: float
    gamma_r2: float
    gamma_f1: float
    gamma_f2: float

    def lam(self, t):
        return getattr(self, f"lam_{t}")

    def beta(self, g, t):
        return getattr(self, f"beta_{g}{t}")

    def gamma(self, g, t):
        return getattr(self, f"gamma_{g}{t}")

    def as_vector(self):
        return np.array([getattr(self, n) for n in DUAL_VAR_ORDER])

    def max_dual_violation(self, params: SystemParams) -> float:
        """Largest dual-feasibility violation against the dual row system."""
        v = [-min(x, 0.0) for x in self.as_vector()[2:]]   # beta, gamma >= 0
        for t in (1, 2):
            for g in ("r", "f"):
                v.append(self.lam(t) - self.beta(g, t) - params.cp(g))
            v.append(self.lam(t) - params.cl)
        v.append(self.beta_r1 + self.beta_r2 - self.gamma_r1 - params.ci_r)
        v.append(self.beta_r2 - self.gamma_r2 - params.ci_r)
        v.append(self.beta_f1 + self.beta_f2 - self.gamma_f1 - params.ci_f)
        v.append(self.beta_f2 - self.gamma_f2 - params.ci_f)
        return max(max(v), 0.0)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def build_lrmc_primal(params: SystemParams) -> LinearProgram:
    """Long-run model: investment and operation both free, cost minimized."""
    c = np.array([
        params.ci_r, params.ci_r, params.ci_f, params.ci_f,
        params.cp_r, params.cp_r, params.cp_f, params.cp_f,
        params.cl, params.cl,
    ])
    A = np.zeros((10, 10))
    b = np.zeros(10)
    rel = []
    # balance_t: P_rt + P_ft + L_t = D_t
    for t in (1, 2):
        i = t - 1
        A[i, 4 + (t - 1)] = 1.0      # P_rt
        A[i, 6 + (t - 1)] = 1.0      # P_ft
        A[i, 8 + (t - 1)] = 1.0      # L_t
        b[i] = params.demand[t - 1]
        rel.append(EQ)
    # cap_gt: -P_gt + sum of live investments >= 0
    cap_rows = ((2, "r", 1), (3, "r", 2), (4, "f", 1), (5, "f", 2))
    p_col = {("r", 1): 4, ("r", 2): 5, ("f", 1): 6, ("f", 2): 7}
    i_col = {("r", 1): 0, ("r", 2): 1, ("f", 1): 2, ("f", 2): 3}
    for row, g, t in cap_rows:
        A[row, p_col[(g, t)]] = -1.0
        A[row, i_col[(g, 1)]] = 1.0
        if t == 2:
            A[row, i_col[(g, 2)]] = 1.0
        b[row] = 0.0
        rel.append(GE)
    # invest_gt: -I_gt >= -M_g
    for k, (g, t) in enumerate((("r", 1), ("r", 2), ("f", 1), ("f", 2))):
        row = 6 + k
        A[row, i_col[(g, t)]] = -1.0
        b[row] = -params.tech(g).max_capacity
        rel.append(GE)
    return LinearProgram(
        sense="min", c=c, A=A, relations=tuple(rel), b=b,
        var_labels=VAR_ORDER, row_labels=LRMC_ROW_ORDER,
    )


def build_lrmc_dual(params: SystemParams) -> LinearProgram:
    """Dual of the long-run model, written out explicitly.

    Variables (lam_1, lam_2) free, then beta >= 0, then gamma >= 0; rows
    labeled by the primal variable whose nonnegativity they price.
    """
    c = np.array([
        params.d1, params.d2, 0, 0, 0, 0,
        -params.m_r, -params.m_r, -params.m_f, -params.m_f,
    ])
    lam1, lam2 = 0, 1
    beta = {("r", 1): 2, ("r", 2): 3, ("f", 1): 4, ("f", 2): 5}
    gamma = {("r", 1): 6, ("r", 2): 7, ("f", 1): 8, ("f", 2): 9}
    A = np.zeros((10, 10))
    b = np.zeros(10)
    labels = []
    row = 0
    for g in ("r", "f"):
        for t in (1, 2):
            A[row, lam1 if t == 1 else lam2] = 1.0
            A[row, beta[(g, t)]] = -1.0
            b[row] = params.cp(g)
            labels.append(f"P_{g}{t}")
            row += 1
    for g in ("r", "f"):
        # I_g1 prices capacity in both periods; I_g2 only the second.
        A[row, beta[(g, 1)]] = 1.0
        A[row, beta[(g, 2)]] = 1.0
        A[row, gamma[(g, 1)]] = -1.0
        b[row] = params.ci(g)
        labels.append(f"I_{g}1")
        row += 1
        A[row, beta[(g, 2)]] = 1.0
        A[row, gamma[(g, 2)]] = -1.0
        b[row] = params.ci(g)
        labels.append(f"I_{g}2")
        row += 1
    for t in (1, 2):
        A[row, lam1 if t == 1 else lam2] = 1.0
        b[row] = params.cl
        labels.append(f"L_{t}")
        row += 1
    lb = np.zeros(10)
    lb[0] = lb[1] = -np.inf
    return LinearProgram(
        sense="max", c=c, A=A, relations=(LE,) * 10, b=b, lower_bounds=lb,
        var_labels=DUAL_VAR_ORDER, row_labels=tuple(labels),
    )


def _check_istar(istar):
    arr = np.asarray(
        istar.investments() if isinstance(istar, PrimalDecision) else istar,
        dtype=float,
    )
    if arr.shape != (4,):
        raise ModelError("istar must hold the four investments (I_r1, I_r2, I_f1, I_f2)")
    if np.any(arr < -DEFAULT.feas):
        raise ModelError("negative invested capacities rejected")
    return np.maximum(arr, 0.0)


def build_srmc_primal(params: SystemParams, istar, epsilon: float = 0.0) -> LinearProgram:
    """Short-run model: investments frozen at istar, optionally slackened.

    ``epsilon`` is added to every capacity right-hand side (both
    technologies, both periods).  Strictly positive epsilon removes the
    degenerate ties that make the flow-balance duals non-unique.
    """
    if epsilon < 0:
        raise ModelError("epsilon must be nonnegative")
    ist = _check_istar(istar)
    i_r1, i_r2, i_f1, i_f2 = ist
    c = np.array([params.cp_r, params.cp_r, params.cp_f, params.cp_f,
                  params.cl, params.cl])
    offset = params.ci_r * (i_r1 + i_r2) + params.ci_f * (i_f1 + i_f2)
    A = np.zeros((6, 6))
    b = np.zeros(6)
    rel = []
    for t in (1, 2):
        i = t - 1
        A[i, 0 + (t - 1)] = 1.0
        A[i, 2 + (t - 1)] = 1.0
        A[i, 4 + (t - 1)] = 1.0
        b[i] = params.demand[t - 1]
        rel.append(EQ)
    caps = (i_r1, i_r1 + i_r2, i_f1, i_f1 + i_f2)
    for k, (col, cap) in enumerate(zip((0, 1, 2, 3), caps)):
        row = 2 + k
        A[row, col] = -1.0
        b[row] = -(cap + epsilon)
        rel.append(GE)
    return LinearProgram(
        sense="min", c=c, A=A, relations=tuple(rel), b=b,
        var_labels=SRMC_VAR_ORDER, row_labels=SRMC_ROW_ORDER,
        objective_offset=float(offset),
    )


def build_srmc_dual(params: SystemParams, istar, epsilon: float = 0.0) -> LinearProgram:
    """Dual of the short-run model (two free prices, four capacity values)."""
    if epsilon < 0:
        raise ModelError("epsilon must be nonnegative")
    i_r1, i_r2, i_f1, i_f2 = _check_istar(istar)
    caps = (i_r1 + epsilon, i_r1 + i_r2 + epsilon,
            i_f1 + epsilon, i_f1 + i_f2 + epsilon)
    offset = params.ci_r * (i_r1 + i_r2) + params.ci_f * (i_f1 + i_f2)
    c = np.array([params.d1, params.d2, -caps[0], -caps[1], -caps[2], -caps[3]])
    A = np.zeros((6, 6))
    b = np.zeros(6)
    labels = []
    row = 0
    for g, off in (("r", 2), ("f", 4)):
        for t in (1, 2):
            A[row, t - 1] = 1.0
            A[row, off + (t - 1)] = -1.0
            b[row] = params.cp(g)
            labels.append(f"P_{g}{t}")
            row += 1
    for t in (1, 2):
        A[row, t - 1] = 1.0
        b[row] = params.cl
        labels.append(f"L_{t}")
        row += 1
    lb = np.zeros(6)
    lb[0] = lb[1] = -np.inf
    return LinearProgram(
        sense="max", c=c, A=A, relations=(LE,) * 6, b=b, lower_bounds=lb,
        var_labels=("lam_1", "lam_2", "beta_r1", "beta_r2", "beta_f1", "beta_f2"),
        row_labels=tuple(labels), objective_offset=float(offset),
    )


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------


def extract_decision(solution: LpSolution, istar=None) -> PrimalDecision:
    """Map a solved builder LP back to model coordinates.

    A 10-variable solution is a long-run solve.  A 6-variable solution is a
    short-run solve and needs the frozen investments passed as ``istar``.
    """
    if not solution.optimal:
        raise ModelError("extraction requires an optimal solution")
    x = solution.x
    if x.shape == (10,):
        return PrimalDecision(*[float(v) for v in x])
    if x.shape == (6,):
        if istar is None:
            raise ModelError("short-run decisions need istar for the investments")
        ist = _check_istar(istar)
        return PrimalDecision(*[float(v) for v in ist], *[float(v) for v in x])
    raise ModelError(f"unexpected solution shape {x.shape}")


def extract_duals(solution: LpSolution) -> DualValues:
    """Duals of a long-run primal solve as (lambda, beta, gamma)."""
    if not solution.optimal:
        raise ModelError("extraction requires an optimal solution")
    y = solution.duals
    if y.shape != (10,):
        raise ModelError(f"expected 10 row duals, got {y.shape}")
    return DualValues(*[float(v) for v in y])


# ---------------------------------------------------------------------------
# a convenience one-shot long-run solve
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LrmcSolve:
    params: SystemParams
    decision: PrimalDecision
    duals: DualValues
    objective: float
    lp_solution: LpSolution


def solve_lrmc(params: SystemParams, *, canonical: bool = True,
               tol: float = None) -> LrmcSolve:
    """Solve the long-run model and map back to model coordinates.

    Investment splits can be non-unique: capacity built in period 1 but
    idle until period 2 costs exactly what period-2 capacity costs, so the
    optimal face may contain a segment of investment plans.  With
    ``canonical=True`` ties are broken toward deferred investment (minimal
    period-1 build), which is the convention of the closed-form results.
    The tie-break objective perturbs only vertex selection and is solved
    over the same phase 1 as the true one; duals are always taken from the
    unperturbed solve.  ``tol`` is the solver's feasibility tolerance.
    """
    return run_step(lrmc_step(params, canonical=canonical, tol=tol))


def lrmc_step(params: SystemParams, *, canonical: bool = True, tol: float = None):
    """:func:`solve_lrmc` as a step that yields its one LP request (see
    :class:`~genmargin.lp.LpRequest`)."""
    prob = build_lrmc_primal(params)
    objectives = [(prob.sense, prob.c)]
    if canonical:
        mu = 1e-9 * (1.0 + float(np.abs(prob.c).max()))
        c2 = prob.c.copy()
        c2[0] += mu   # I_r1
        c2[2] += mu   # I_f1
        objectives.append(("min", c2))
    sol, *tie = yield LpRequest(prob, tuple(objectives), tol)
    if not sol.optimal:
        # With CL > 0 and finite caps the model is always feasible/bounded.
        raise ModelError(f"long-run model unexpectedly {sol.status}")
    decision_sol = tie[0] if tie and tie[0].optimal else sol
    return LrmcSolve(
        params=params,
        decision=extract_decision(decision_sol),
        duals=extract_duals(sol),
        objective=float(sol.objective),
        lp_solution=sol,
    )
