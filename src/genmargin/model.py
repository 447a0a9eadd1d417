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

import math
from dataclasses import dataclass, fields

import numpy as np

from .lp import EQ, GE, LE, LinearProgram, LpRequest, LpSolution, run_step
from .tolerances import current

VAR_ORDER = ("I_r1", "I_r2", "I_f1", "I_f2",
             "P_r1", "P_r2", "P_f1", "P_f2", "L_1", "L_2")
LRMC_ROW_ORDER = ("balance_1", "balance_2", "cap_r1", "cap_r2", "cap_f1",
                  "cap_f2", "invest_r1", "invest_r2", "invest_f1", "invest_f2")
SRMC_VAR_ORDER = ("P_r1", "P_r2", "P_f1", "P_f2", "L_1", "L_2")
SRMC_ROW_ORDER = ("balance_1", "balance_2", "cap_r1", "cap_r2", "cap_f1", "cap_f2")
DUAL_VAR_ORDER = ("lam_1", "lam_2", "beta_r1", "beta_r2", "beta_f1", "beta_f2",
                  "gamma_r1", "gamma_r2", "gamma_f1", "gamma_f2")


# Attribute names of PrimalDecision and DualValues by (technology, period)
# or by period, made once for the accessors.
_BY_GT = tuple((g, t) for g in ("r", "f") for t in (1, 2))
_INVESTED = {(g, t): f"i_{g}{t}" for g, t in _BY_GT}
_GENERATION = {(g, t): f"p_{g}{t}" for g, t in _BY_GT}
_BETA = {(g, t): f"beta_{g}{t}" for g, t in _BY_GT}
_GAMMA = {(g, t): f"gamma_{g}{t}" for g, t in _BY_GT}
_SHED = {t: f"l_{t}" for t in (1, 2)}
_LAM = {t: f"lam_{t}" for t in (1, 2)}


class ModelError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class SystemParams:
    """All nine model parameters, under their config-file names: each
    technology's investment cost, operating cost and per-period build cap
    (``ci_g``, ``cp_g``, ``m_g``; capacity lives two periods, the model's
    one lifetime), the loadshed cost ``cl`` and the demands ``d1``, ``d2``.
    Each is stored as a float.

    Standing assumption: the fossil technology is dearer on both cost
    components (CI_r < CI_f and CP_r < CP_f).
    """

    ci_r: float
    cp_r: float
    m_r: float
    ci_f: float
    cp_f: float
    m_f: float
    cl: float
    d1: float
    d2: float

    def __post_init__(self):
        for g in ("r", "f"):
            _store_finite(self, (f"ci_{g}", f"cp_{g}", f"m_{g}"))
            if self.ci(g) < 0 or self.cp(g) < 0:
                raise ModelError("costs must be nonnegative")
            if not self.m(g) > 0:
                raise ModelError("max investable capacity must be positive")
        _store_finite(self, ("cl", "d1", "d2"))
        if not self.ci_r < self.ci_f:
            raise ModelError("requires CI_r < CI_f")
        if not self.cp_r < self.cp_f:
            raise ModelError("requires CP_r < CP_f")
        if not self.cl > 0:
            raise ModelError("loadshed cost must be positive")
        if self.d1 < 0 or self.d2 < 0:
            raise ModelError("demand must be two nonnegative values")

    #: The constructor under the name the demos and callers use.
    from_values = classmethod(lambda cls, *values, **named: cls(*values, **named))

    @property
    def demand(self):
        return (self.d1, self.d2)

    def ci(self, g):
        return self.ci_r if g == "r" else self.ci_f

    def cp(self, g):
        return self.cp_r if g == "r" else self.cp_f

    def m(self, g):
        return self.m_r if g == "r" else self.m_f


#: The nine parameter names, in field order: the config file's keys.
PARAM_FIELDS = tuple(f.name for f in fields(SystemParams))


def _store_finite(params: SystemParams, names):
    """Store each of ``names`` on ``params`` as a float, all converted
    before any is checked; reject the first one that is not finite."""
    values = [float(getattr(params, name)) for name in names]
    for name, value in zip(names, values):
        if not math.isfinite(value):
            raise ModelError(f"{name} must be finite, got {value!r}")
        object.__setattr__(params, name, value)


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
        return getattr(self, _INVESTED[g, t])

    def generation(self, g, t):
        return getattr(self, _GENERATION[g, t])

    def shed(self, t):
        return getattr(self, _SHED[t])

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
        """Largest constraint violation (0 when feasible).

        The terms, in order: each entry's negativity; then per period the
        balance gap, and per technology generation above capacity and the
        period's build above its cap.  ``max`` keeps the first of equal
        terms, so the order decides whether a feasible build reads 0.0 or
        -0.0.
        """
        i_r1, i_r2, i_f1, i_f2 = self.i_r1, self.i_r2, self.i_f1, self.i_f2
        p_r1, p_r2, p_f1, p_f2 = self.p_r1, self.p_r2, self.p_f1, self.p_f2
        l_1, l_2 = self.l_1, self.l_2
        d1, d2, m_r, m_f = params.d1, params.d2, params.m_r, params.m_f
        return max(
            -min(i_r1, 0.0), -min(i_r2, 0.0), -min(i_f1, 0.0), -min(i_f2, 0.0),
            -min(p_r1, 0.0), -min(p_r2, 0.0), -min(p_f1, 0.0), -min(p_f2, 0.0),
            -min(l_1, 0.0), -min(l_2, 0.0),
            abs(p_r1 + p_f1 + l_1 - d1),
            p_r1 - (i_r1 + 0.0), i_r1 - m_r, p_f1 - (i_f1 + 0.0), i_f1 - m_f,
            abs(p_r2 + p_f2 + l_2 - d2),
            p_r2 - (i_r1 + i_r2), i_r2 - m_r, p_f2 - (i_f1 + i_f2), i_f2 - m_f,
            0.0,
        )

    def is_feasible(self, params):
        return self.max_violation(params) <= feasibility_limit(params)


def feasibility_limit(params: SystemParams) -> float:
    """Largest ``max_violation`` of a feasible decision, and largest amount
    that counts as none: ``current().feas`` times one plus the largest
    demand or cap."""
    return current().feas * (1.0 + max(params.d1, params.d2, params.m_r, params.m_f))


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
        return getattr(self, _LAM[t])

    def beta(self, g, t):
        return getattr(self, _BETA[g, t])

    def gamma(self, g, t):
        return getattr(self, _GAMMA[g, t])

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


def _frozen(rows) -> np.ndarray:
    a = np.array(rows, dtype=float)
    a.setflags(write=False)
    return a


# The builders' constant parts, made once: every call fills in only the
# costs, the right-hand side and the objective offset.

#: Long-run primal, rows LRMC_ROW_ORDER over columns VAR_ORDER:
#: balance_t (P_rt + P_ft + L_t = D_t), cap_gt (live investments - P_gt
#: >= 0; I_g1 serves both periods) and invest_gt (-I_gt >= -M_g).
_LRMC_A = _frozen([
    # I_r1 I_r2 I_f1 I_f2 P_r1 P_r2 P_f1 P_f2 L_1 L_2
    [0, 0, 0, 0, 1, 0, 1, 0, 1, 0],
    [0, 0, 0, 0, 0, 1, 0, 1, 0, 1],
    [1, 0, 0, 0, -1, 0, 0, 0, 0, 0],
    [1, 1, 0, 0, 0, -1, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, -1, 0, 0, 0],
    [0, 0, 1, 1, 0, 0, 0, -1, 0, 0],
    [-1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, -1, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, -1, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, -1, 0, 0, 0, 0, 0, 0],
])
_LRMC_REL = (EQ, EQ) + (GE,) * 8

#: Long-run dual, variables DUAL_VAR_ORDER, one row per primal variable
#: (_LRMC_DUAL_ROWS): P_gt prices lam_t - beta_gt <= CP_g, I_g1 prices
#: capacity in both periods, I_g2 only the second, L_t caps lam_t at CL.
_LRMC_DUAL_A = _frozen([
    # lam_1 lam_2 beta_r1 beta_r2 beta_f1 beta_f2 gamma_r1 gamma_r2 gamma_f1 gamma_f2
    [1, 0, -1, 0, 0, 0, 0, 0, 0, 0],
    [0, 1, 0, -1, 0, 0, 0, 0, 0, 0],
    [1, 0, 0, 0, -1, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, -1, 0, 0, 0, 0],
    [0, 0, 1, 1, 0, 0, -1, 0, 0, 0],
    [0, 0, 0, 1, 0, 0, 0, -1, 0, 0],
    [0, 0, 0, 0, 1, 1, 0, 0, -1, 0],
    [0, 0, 0, 0, 0, 1, 0, 0, 0, -1],
    [1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0, 0, 0, 0, 0],
])
_LRMC_DUAL_ROWS = ("P_r1", "P_r2", "P_f1", "P_f2",
                   "I_r1", "I_r2", "I_f1", "I_f2", "L_1", "L_2")
_LRMC_DUAL_LB = _frozen([-np.inf, -np.inf] + [0.0] * 8)

#: Short-run primal, rows SRMC_ROW_ORDER over columns SRMC_VAR_ORDER:
#: balance_t, then cap_gt as -P_gt >= -(capacity + epsilon).
_SRMC_A = _frozen([
    # P_r1 P_r2 P_f1 P_f2 L_1 L_2
    [1, 0, 1, 0, 1, 0],
    [0, 1, 0, 1, 0, 1],
    [-1, 0, 0, 0, 0, 0],
    [0, -1, 0, 0, 0, 0],
    [0, 0, -1, 0, 0, 0],
    [0, 0, 0, -1, 0, 0],
])
_SRMC_REL = (EQ, EQ) + (GE,) * 4


def build_lrmc_primal(params: SystemParams) -> LinearProgram:
    """Long-run model: investment and operation both free, cost minimized."""
    c = np.array([
        params.ci_r, params.ci_r, params.ci_f, params.ci_f,
        params.cp_r, params.cp_r, params.cp_f, params.cp_f,
        params.cl, params.cl,
    ])
    m_r, m_f = params.m_r, params.m_f
    b = np.array([params.d1, params.d2, 0.0, 0.0, 0.0, 0.0, -m_r, -m_r, -m_f, -m_f])
    return LinearProgram(
        sense="min", c=c, A=_LRMC_A, relations=_LRMC_REL, b=b,
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
    cp_r, cp_f, ci_r, ci_f = params.cp_r, params.cp_f, params.ci_r, params.ci_f
    b = np.array([cp_r, cp_r, cp_f, cp_f, ci_r, ci_r, ci_f, ci_f, params.cl, params.cl])
    return LinearProgram(
        sense="max", c=c, A=_LRMC_DUAL_A, relations=(LE,) * 10, b=b,
        lower_bounds=_LRMC_DUAL_LB, var_labels=DUAL_VAR_ORDER,
        row_labels=_LRMC_DUAL_ROWS,
    )


def _check_istar(istar):
    arr = np.asarray(
        istar.investments() if isinstance(istar, PrimalDecision) else istar,
        dtype=float,
    )
    if arr.shape != (4,):
        raise ModelError("istar must hold the four investments (I_r1, I_r2, I_f1, I_f2)")
    if np.any(arr < -current().feas):
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
    b = np.array([params.d1, params.d2,
                  -(i_r1 + epsilon), -(i_r1 + i_r2 + epsilon),
                  -(i_f1 + epsilon), -(i_f1 + i_f2 + epsilon)])
    return LinearProgram(
        sense="min", c=c, A=_SRMC_A, relations=_SRMC_REL, b=b,
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


def extract_decision(solution: LpSolution) -> PrimalDecision:
    """Decision of a long-run primal solve (10 variables) in model coordinates."""
    if not solution.optimal:
        raise ModelError("extraction requires an optimal solution")
    x = solution.x
    if x.shape != (10,):
        raise ModelError(f"unexpected solution shape {x.shape}")
    return PrimalDecision(*[float(v) for v in x])


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


def solve_lrmc(params: SystemParams, *, canonical: bool = True) -> LrmcSolve:
    """Solve the long-run model and map back to model coordinates.

    Investment splits can be non-unique: capacity built in period 1 but
    idle until period 2 costs exactly what period-2 capacity costs, so the
    optimal face may contain a segment of investment plans.  With
    ``canonical=True`` ties are broken toward deferred investment (minimal
    period-1 build), which is the convention of the closed-form results.
    The tie-break objective perturbs only vertex selection and is solved
    over the same phase 1 as the true one; duals are always taken from the
    unperturbed solve.
    """
    return run_step(lrmc_step(params, canonical=canonical))


def lrmc_step(params: SystemParams, *, canonical: bool = True):
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
    sol, *tie = yield LpRequest(prob, tuple(objectives))
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
