"""Price profiles, cost recovery, and investment-cost allocation.

Seven distinct long-run price pairs cover all 41 groups.  The group table
(``GroupSpec.lrmc``, evaluated by ``analytic_solution``) holds each group's
pair; a profile names which of the seven it is, and an orientation says
which period carries the profile's first price.  Two profiles are
period-fixed (marked ``fixed``): their first price can only occur in
period 1.

Cost recovery compares revenue ``D1*p1 + D2*p2`` with the model objective
at a given decision.  At the long-run prices the profit always equals the
total opportunity-cost rent ``sum_gt M_g * gamma_gt`` (strong duality), so
it is nonnegative everywhere and exactly zero precisely when no
investment bound earns rent -- the single-technology groups.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import GROUPS, _shared_amount, marginal_option
from .lp import record
from .model import PrimalDecision, SystemParams, feasibility_limit
from .tolerances import current


class PricingError(ValueError):
    pass


@dataclass(frozen=True)
class LrmcProfile:
    profile_id: int
    marginal_tech: str      # "r" | "f" | "" (profile 1) | "rf" (profiles 6, 7)
    fixed_order: bool       # first price pinned to period 1

    def __post_init__(self):
        if self.profile_id not in range(1, 8):
            raise PricingError(f"profile id must be 1..7, got {self.profile_id}")


#: profile id -> (needs marginal tech, fixed order)
_PROFILE_META = {1: (False, False), 2: (True, False), 3: (True, False),
                 4: (True, False), 5: (True, True), 6: (False, False),
                 7: (False, True)}

#: Groups whose long-run profit is exactly zero: single-technology groups
#: where no investment bound carries a positive opportunity cost.  All
#: other groups earn strictly positive rents at the long-run prices.
ZERO_RENT_GROUPS = frozenset({1, 2, 3, 4, 9, 17, 24, 25, 26, 30, 35})


def _profile(spec) -> LrmcProfile:
    pid = spec.profile_id
    tech = spec.profile_tech if _PROFILE_META[pid][0] else ("rf" if pid in (6, 7) else "")
    return LrmcProfile(pid, tech, _PROFILE_META[pid][1])


_PROFILES = {gid: _profile(spec) for gid, spec in GROUPS.items()}


def lrmc_profile_for_group(gid: int) -> LrmcProfile:
    """The group's long-run price profile.  There is one per group, built
    once at import from the group table; the records are frozen, so every
    caller shares it."""
    return _PROFILES[gid]


def group_orientation(gid: int) -> int:
    """Which period carries the group's first profile price."""
    return GROUPS[gid].orientation


def _srmc_pair(profile: LrmcProfile, params: SystemParams):
    pid = profile.profile_id
    g = profile.marginal_tech
    cl = params.cl
    if pid == 1:
        return (cl, cl)
    if pid in (2, 4, 5):
        return (cl, params.cp(g))
    if pid == 3:
        return (params.cp(g), params.cp(g))
    if pid == 6:
        return (params.cp_r, params.cp_f)
    return (params.cp_f, params.cp_r)


def _orient(pair, profile: LrmcProfile, orientation: int):
    if orientation not in (1, 2):
        raise PricingError("orientation must be 1 or 2")
    if profile.fixed_order and orientation != 1:
        raise PricingError(
            f"profile {profile.profile_id} is period-fixed; orientation 2 invalid")
    return pair if orientation == 1 else (pair[1], pair[0])


@record()
class SrmcPricing:
    prices: tuple       # (period 1, period 2)
    recovered: bool     # whether this profile's short-run prices recover cost


def srmc_profile(profile: LrmcProfile, params: SystemParams,
                 orientation: int) -> SrmcPricing:
    """Short-run counterpart of a long-run profile.

    Only the two profiles whose short-run prices equal the long-run ones
    (1 and 4) keep cost recovery; that is the ``recovered`` flag.
    """
    pair = _orient(_srmc_pair(profile, params), profile, orientation)
    return SrmcPricing(prices=pair, recovered=profile.profile_id in (1, 4))


# ---------------------------------------------------------------------------
# cost recovery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InvestmentAllocation:
    tech: str
    invest_cost: float
    peak_share: float
    offpeak_share: float
    rule: str           # "all-to-peak" | "split"


@record()
class RecoveryReport:
    revenue: float
    total_cost: float
    profit: float
    recovered: bool
    revenue_by_period: tuple


def investment_allocation(params: SystemParams, decision: PrimalDecision) -> tuple:
    """Split each shared build's investment cost across the two periods:
    one :class:`InvestmentAllocation` per technology with a shared build.

    All of it lands on the peak unless the peak's marginal unit is cheaper
    to invest in than the shared technology itself; then the peak only
    absorbs the marginal unit's cost and the off-peak period carries the
    difference.  With peak-period shedding the loadshed cost plays the
    marginal role.
    """
    peak = 2 if params.d2 >= params.d1 else 1
    out = []
    tol = feasibility_limit(params)
    for g in ("r", "f"):
        shared = _shared_amount(decision, g)
        if shared <= tol:
            continue
        ci_g = params.ci(g)
        if decision.shed(peak) > tol:
            cap = params.cl
        else:
            opt = marginal_option(params, decision, peak)
            cap = params.ci("r" if opt in ("SR", "R") else "f")
        if ci_g <= cap:
            out.append(InvestmentAllocation(g, ci_g, ci_g, 0.0, "all-to-peak"))
        else:
            out.append(InvestmentAllocation(g, ci_g, cap, ci_g - cap, "split"))
    return tuple(out)


def sales(price_pairs, decision: PrimalDecision, params: SystemParams) -> tuple:
    """``(total_cost, sold)``: the total cost of ``decision``, checked once
    to be feasible, and, under each price pair, ``((r1, r2), revenue,
    profit)`` of selling each period's demand at its price."""
    if not decision.is_feasible(params):
        raise PricingError("decision is infeasible for these parameters")
    total_cost = decision.total_cost(params)
    sold = []
    for prices in price_pairs:
        p1, p2 = float(prices[0]), float(prices[1])
        r1, r2 = params.d1 * p1, params.d2 * p2
        revenue = r1 + r2
        sold.append(((r1, r2), revenue, revenue - total_cost))
    return total_cost, tuple(sold)


def cost_recovery(prices, decision: PrimalDecision, params: SystemParams) -> RecoveryReport:
    """Revenue, total cost and profit of a decision under a price pair."""
    total_cost, ((by_period, revenue, profit),) = sales((prices,), decision, params)
    return RecoveryReport(
        revenue=revenue,
        total_cost=total_cost,
        profit=profit,
        recovered=profit >= -current().money,
        revenue_by_period=by_period,
    )
