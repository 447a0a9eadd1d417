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

from .lp import EQ, GE, LE, BasisPool, LinearProgram, LpSolution, _Frame, run_step
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


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


# One frame per LP kind, checked once at import: a build fills in only the
# costs, the right-hand side and the objective offset.

#: Long-run primal, rows LRMC_ROW_ORDER over columns VAR_ORDER:
#: balance_t (P_rt + P_ft + L_t = D_t), cap_gt (live investments - P_gt
#: >= 0; I_g1 serves both periods) and invest_gt (-I_gt >= -M_g).
_LRMC = _Frame([
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
], (EQ, EQ) + (GE,) * 8, var_labels=VAR_ORDER, row_labels=LRMC_ROW_ORDER)

#: Long-run dual, variables DUAL_VAR_ORDER (lam_t free), one row per primal
#: variable: P_gt prices lam_t - beta_gt <= CP_g, I_g1 prices capacity in
#: both periods, I_g2 only the second, L_t caps lam_t at CL.
_LRMC_DUAL = _Frame([
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
], (LE,) * 10, [-np.inf, -np.inf] + [0.0] * 8, var_labels=DUAL_VAR_ORDER,
    row_labels=("P_r1", "P_r2", "P_f1", "P_f2", "I_r1", "I_r2", "I_f1", "I_f2", "L_1", "L_2"))

#: Short-run primal, rows SRMC_ROW_ORDER over columns SRMC_VAR_ORDER:
#: balance_t, then cap_gt as -P_gt >= -(capacity + epsilon).
_SRMC = _Frame([
    # P_r1 P_r2 P_f1 P_f2 L_1 L_2
    [1, 0, 1, 0, 1, 0],
    [0, 1, 0, 1, 0, 1],
    [-1, 0, 0, 0, 0, 0],
    [0, -1, 0, 0, 0, 0],
    [0, 0, -1, 0, 0, 0],
    [0, 0, 0, -1, 0, 0],
], (EQ, EQ) + (GE,) * 4, var_labels=SRMC_VAR_ORDER, row_labels=SRMC_ROW_ORDER)

#: Short-run dual, variables (lam_1, lam_2) free and beta >= 0, one row per
#: short-run variable: lam_t - beta_gt <= CP_g, lam_t <= CL.
_SRMC_DUAL = _Frame([
    # lam_1 lam_2 beta_r1 beta_r2 beta_f1 beta_f2
    [1, 0, -1, 0, 0, 0],
    [0, 1, 0, -1, 0, 0],
    [1, 0, 0, 0, -1, 0],
    [0, 1, 0, 0, 0, -1],
    [1, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0],
], (LE,) * 6, [-np.inf, -np.inf] + [0.0] * 4, var_labels=DUAL_VAR_ORDER[:6],
    row_labels=SRMC_VAR_ORDER)


#: The basis atlas of ``sweep`` and ``selftest`` (``cli.basis_atlas``): per
#: frame and standard-form layout (its rows with ``b < 0`` marked "1"), two
#: blocks of bases in the order they are tried, each basis the base-36
#: digits of its standard-form columns, one per row.  The representative
#: block holds the optimal bases of a ``sweep`` row's three LPs at each
#: group's representative point, in the order those solves first reach
#: them (columns in the order of the basis rows).  The enumerated block
#: holds, in column-index order, every other column set whose right-hand-
#: side region and cost region are both full-dimensional in the model's
#: domain, so that some basis of the atlas is optimal wherever ``sweep``
#: and ``selftest`` solve.  ``tests/atlas_enumeration.py`` derives both
#: blocks and prints this literal; ``tests/test_atlas.py`` checks it.
ATLAS = (
    (_LRMC, "0000001111",
     "598426efgh 590426efgh 510423efgh 57042ae1gh 570429a1gh "
     "570423a1gh 5c0423a1g7 590423a1c7 87e4965fgh 8704965fgh "
     "f7042659gh f7042651gh 79042651gh 73042651gh 7c042651g3 "
     "79042651c3 87042659fh 87042651fh 890426517h 830426517h "
     "8904265173 850426efgh b50426efgh 850426bfgh d50426bfgh "
     "850426bfdh 8704265fgh d704265fgh 8704265fdh",
     "01234567ch 0123457ach 0123459agh 012345aegh 012345afgh "
     "012389efgh 0124567cgh 012457acgh 012457afgh 012457efgh "
     "012459acgh 01245acegh 01245acfgh 01245cefgh 01289cefgh "
     "01289defgh 013457acgh 013459acgh 01345acegh 01345acfgh "
     "01345cefgh 01389cefgh 014579acgh 01457acegh 01457acfgh "
     "01457cefgh 0189cdefgh 023459efgh 02345aefgh 023489efgh "
     "023589efgh 02389aefgh 02389befgh 0245689fgh 0245789fgh "
     "024578efgh 024579efgh 02457aefgh 02458bdfgh 02458defgh "
     "02459cefgh 0245acefgh 0245bdefgh 024689efgh 024789efgh "
     "02489cefgh 02489defgh 025689efgh 025789efgh 02589cefgh "
     "02589defgh 0289acefgh 0289adefgh 0289bcefgh 0289bdefgh "
     "03459cefgh 0345acefgh 03489cefgh 03589cefgh 0389acefgh "
     "0389bcefgh 045678efgh 045679efgh 04568bdfgh 04568defgh "
     "0456bdefgh 04579cefgh 0457acefgh 046789efgh 0489cdefgh "
     "056789efgh 0589cdefgh 089acdefgh 089bcdefgh 12389aefgh "
     "1289acefgh 1289adefgh 1389acefgh 189acdefgh 234589efgh "
     "2389abefgh 245789efgh 24589cefgh 24589defgh 289abcefgh "
     "289abdefgh 34589cefgh 389abcefgh 4589cdefgh 89abcdefgh"),
    (_SRMC, "000000",
     "450123",
     "014589 456789"),
    (_SRMC, "000001",
     "",
     "012345 012349 014589 456789"),
    (_SRMC, "000011",
     "",
     "012345 012349 012358 012389 014589 456789"),
    (_SRMC, "000100",
     "",
     "012345 012479 014589 014789 456789"),
    (_SRMC, "000101",
     "",
     "012345 012349 012479 014589 014789 456789"),
    (_SRMC, "000111",
     "",
     "012345 012349 012358 012389 012479 012789 014589 014789 "
     "456789"),
    (_SRMC, "001100",
     "450123 056183 410729",
     "014589 014789 015689 016789 456789"),
    (_SRMC, "001101",
     "056183",
     "012345 012349 012479 013689 014589 014789 015689 016789 "
     "456789"),
    (_SRMC, "001111",
     "450123 056183 016789 036189 250183 230189 430129 410729 "
     "210789",
     "014589 014789 015689 456789"),
)


def build_lrmc_primal(params: SystemParams) -> LinearProgram:
    """Long-run model: investment and operation both free, cost minimized."""
    p = params
    return _LRMC.program(
        "min", [p.ci_r, p.ci_r, p.ci_f, p.ci_f, p.cp_r, p.cp_r, p.cp_f, p.cp_f, p.cl, p.cl],
        [p.d1, p.d2, 0.0, 0.0, 0.0, 0.0, -p.m_r, -p.m_r, -p.m_f, -p.m_f])


def build_lrmc_dual(params: SystemParams) -> LinearProgram:
    """Dual of the long-run model, written out explicitly.

    Variables (lam_1, lam_2) free, then beta >= 0, then gamma >= 0; rows
    labeled by the primal variable whose nonnegativity they price.
    """
    p = params
    return _LRMC_DUAL.program(
        "max", [p.d1, p.d2, 0.0, 0.0, 0.0, 0.0, -p.m_r, -p.m_r, -p.m_f, -p.m_f],
        [p.cp_r, p.cp_r, p.cp_f, p.cp_f, p.ci_r, p.ci_r, p.ci_f, p.ci_f, p.cl, p.cl])


def _check_istar(istar) -> list:
    """The four investments of ``istar`` as floats, after checking that
    none is below zero by more than ``current().feas``; the rest are raised
    to 0.0 as ``np.maximum(v, 0.0)`` raises them (-0.0 too; NaN stays)."""
    if isinstance(istar, PrimalDecision):
        values = [float(v) for v in istar.investments()]
    else:
        arr = np.asarray(istar, dtype=float)
        if arr.shape != (4,):
            raise ModelError("istar must hold the four investments (I_r1, I_r2, I_f1, I_f2)")
        values = arr.tolist()
    floor = -current().feas
    if any(v < floor for v in values):
        raise ModelError("negative invested capacities rejected")
    return [v if v > 0.0 or v != v else 0.0 for v in values]


def _short_run(params: SystemParams, istar, epsilon):
    """``(caps, offset)`` at ``istar``: the live capacity of each
    technology and period plus ``epsilon``, and the invested cost."""
    if epsilon < 0:
        raise ModelError("epsilon must be nonnegative")
    i_r1, i_r2, i_f1, i_f2 = _check_istar(istar)
    caps = (i_r1 + epsilon, i_r1 + i_r2 + epsilon, i_f1 + epsilon, i_f1 + i_f2 + epsilon)
    return caps, float(params.ci_r * (i_r1 + i_r2) + params.ci_f * (i_f1 + i_f2))


def build_srmc_primal(params: SystemParams, istar, epsilon: float = 0.0) -> LinearProgram:
    """Short-run model: investments frozen at istar, optionally slackened.

    ``epsilon`` is added to every capacity right-hand side (both
    technologies, both periods).  Strictly positive epsilon removes the
    degenerate ties that make the flow-balance duals non-unique.
    """
    (c1, c2, c3, c4), offset = _short_run(params, istar, epsilon)
    p = params
    return _SRMC.program("min", [p.cp_r, p.cp_r, p.cp_f, p.cp_f, p.cl, p.cl],
                         [p.d1, p.d2, -c1, -c2, -c3, -c4], offset)


def build_srmc_dual(params: SystemParams, istar, epsilon: float = 0.0) -> LinearProgram:
    """Dual of the short-run model (two free prices, four capacity values)."""
    (c1, c2, c3, c4), offset = _short_run(params, istar, epsilon)
    p = params
    return _SRMC_DUAL.program("max", [p.d1, p.d2, -c1, -c2, -c3, -c4],
                              [p.cp_r, p.cp_r, p.cp_f, p.cp_f, p.cl, p.cl], offset)


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


def solve_lrmc(params: SystemParams, *, pool: BasisPool = None) -> LrmcSolve:
    """Solve the long-run model and map back to model coordinates.

    Where several builds are optimal (at a cost tie, or capacity built in
    period 1 but idle until period 2), ``decision`` is the optimal vertex
    the solve ends at; the reports freeze the closed form's build instead
    (README, "Notes on conventions").

    With a ``pool`` (``lp.BasisPool``) the LP is answered as
    ``lp.run_step`` answers it then: from a pooled basis that proves it
    optimal, else pivoted (see ``lp``'s module docstring).
    """
    return run_step(lrmc_step(params), pool)


def lrmc_step(params: SystemParams):
    """:func:`solve_lrmc` as a step that yields its one LP (see
    :func:`~genmargin.lp.run_lockstep`)."""
    sol = yield build_lrmc_primal(params)
    if not sol.optimal:
        # With CL > 0 and finite caps the model is always feasible/bounded.
        raise ModelError(f"long-run model unexpectedly {sol.status}")
    return LrmcSolve(
        params=params,
        decision=extract_decision(sol),
        duals=extract_duals(sol),
        objective=float(sol.objective),
        lp_solution=sol,
    )
