"""The 41 instance groups: classification and closed-form optima.

Each group is a region of parameter space with a fixed symbolic optimal
decision and marginal-price pair.  The regions are organized in six
clusters by peak-period orientation and by where the off-peak demand sits
relative to the investable capacities; within a cluster, the loadshed-cost
band and the peak-demand band pick the group.

The group table lives here as data: per-group condition strings, decision
formulas, price formulas and profile assignment, all evaluated against a
shared symbol environment.  Cluster membership and the within-cluster
ladder are data too, so the whole map can be dumped to CSV and audited.

Three transcription notes (all verified against the LP):

* Ladder bands are applied as a first-match ladder.  Written as closed
  two-sided intervals the published conditions leave gaps (a cheap-demand
  region with an expensive loadshed cost matches no row) and overlaps;
  first-match with one-sided thresholds restores the partition.
* The fixed decisions for groups 13, 14 and 32 are corrected to satisfy
  flow balance (the obvious intended formulas; the LP agrees).
* The whole table presumes the cost ladder
  CI_r/2 + CP_r < CI_f/2 + CP_f <= CI_r + CP_r < CI_f + CP_f.
  The first and last inequalities follow from the standing cost ordering;
  the middle one (shared fossil no dearer than non-shared renewable) is an
  extra assumption without which several regions have no table row.
  classify() rejects parameters that violate it.
"""

from __future__ import annotations

import io
import csv
from dataclasses import dataclass

from .model import PrimalDecision, SystemParams
from .tolerances import DEFAULT

OPTIONS = ("SR", "SF", "R", "F")   # shared/non-shared renewable/fossil


class ClassificationError(ValueError):
    pass


def _env(p: SystemParams) -> dict:
    return {
        "d1": p.d1, "d2": p.d2, "m_r": p.m_r, "m_f": p.m_f,
        "ci_r": p.ci_r, "cp_r": p.cp_r, "ci_f": p.ci_f, "cp_f": p.cp_f,
        "cl": p.cl,
        "t_sr": p.ci_r / 2 + p.cp_r,   # shared renewable unit cost
        "t_sf": p.ci_f / 2 + p.cp_f,   # shared fossil unit cost
        "t_r": p.ci_r + p.cp_r,        # non-shared renewable unit cost
        "t_f": p.ci_f + p.cp_f,        # non-shared fossil unit cost
    }


_CODE_CACHE = {}


def _ev(expr: str, env: dict) -> float:
    code = _CODE_CACHE.get(expr)
    if code is None:
        code = _CODE_CACHE[expr] = compile(expr, "<group-table>", "eval")
    return float(eval(code, {"__builtins__": {}}, env))  # noqa: S307 - fixed table strings


@dataclass(frozen=True)
class GroupSpec:
    gid: int
    cluster: int
    peak_period: int
    profile_id: int
    profile_tech: str        # marginal technology g of the profile ("" for profile 1)
    orientation: int         # period carrying the profile's first listed price
    conditions: tuple        # human-readable band description
    invest: tuple            # formula strings (i_r1, i_r2, i_f1, i_f2)
    shed: tuple              # formula strings (l_1, l_2)
    lrmc: tuple              # formula strings (lam_1, lam_2)


@dataclass(frozen=True)
class InstanceGroup:
    gid: int
    cluster: int
    peak_period: int
    boundary: bool
    margin: float            # smallest relative margin over the defining inequalities


@dataclass(frozen=True)
class AnalyticResult:
    group: InstanceGroup
    decision: PrimalDecision
    lrmc: tuple              # (lam_1, lam_2)
    profile_id: int
    used_options: tuple      # per-period frozensets of option labels


# ---------------------------------------------------------------------------
# group table (decision and price formulas per group)
# ---------------------------------------------------------------------------

_T = []


def _g(gid, cluster, peak, profile, tech, orient, cond, invest, shed, lrmc):
    _T.append(GroupSpec(gid, cluster, peak, profile, tech, orient,
                        tuple(cond), tuple(invest), tuple(shed), tuple(lrmc)))


_Z = "0"

# cluster 1: peak in period 2, off-peak demand below the renewable cap
_g(1, 1, 2, 1, "", 1, ("d1 < d2", "d1 < m_r", "cl < t_sr"),
   (_Z, _Z, _Z, _Z), ("d1", "d2"), ("cl", "cl"))
_g(2, 1, 2, 2, "r", 2, ("d1 < d2", "d1 < m_r", "t_sr < cl < t_r"),
   ("d1", _Z, _Z, _Z), (_Z, "d2 - d1"), ("ci_r + 2*cp_r - cl", "cl"))
_g(3, 1, 2, 3, "r", 1, ("d1 < d2", "d1 < m_r", "t_r < cl", "d2 < d1 + m_r"),
   ("d1", "d2 - d1", _Z, _Z), (_Z, _Z), ("cp_r", "ci_r + cp_r"))
_g(4, 1, 2, 3, "r", 1, ("d1 < d2", "d1 < m_r", "t_r < cl", "d1 + m_r < d2 < 2*m_r"),
   ("d2 - m_r", "m_r", _Z, _Z), (_Z, _Z), ("cp_r", "ci_r + cp_r"))
_g(5, 1, 2, 4, "r", 2, ("d1 < d2", "d1 < m_r", "t_r < cl < t_f", "d2 > 2*m_r"),
   ("m_r", "m_r", _Z, _Z), (_Z, "d2 - 2*m_r"), ("cp_r", "cl"))
_g(6, 1, 2, 6, "f", 1, ("d1 < d2", "d1 < m_r", "cl > t_f", "2*m_r < d2 < 2*m_r + m_f"),
   ("m_r", "m_r", _Z, "d2 - 2*m_r"), (_Z, _Z), ("cp_r", "ci_f + cp_f"))
_g(7, 1, 2, 6, "f", 1, ("d1 < d2", "d1 < m_r", "cl > t_f",
                        "2*m_r + m_f < d2 < 2*m_r + 2*m_f"),
   ("m_r", "m_r", "d2 - 2*m_r - m_f", "m_f"), (_Z, _Z), ("cp_r", "ci_f + cp_f"))
_g(8, 1, 2, 4, "r", 2, ("d1 < d2", "d1 < m_r", "cl > t_f", "d2 > 2*m_r + 2*m_f"),
   ("m_r", "m_r", "m_f", "m_f"), (_Z, "d2 - 2*m_r - 2*m_f"), ("cp_r", "cl"))

# cluster 2: peak in period 2, off-peak demand needs shared fossil
_g(9, 2, 2, 1, "", 1, ("d1 < d2", "m_r < d1 < m_r + m_f", "cl < t_sr"),
   (_Z, _Z, _Z, _Z), ("d1", "d2"), ("cl", "cl"))
_g(10, 2, 2, 1, "", 1, ("d1 < d2", "m_r < d1 < m_r + m_f", "t_sr < cl < t_sf"),
   ("m_r", _Z, _Z, _Z), ("d1 - m_r", "d2 - m_r"), ("cl", "cl"))
_g(11, 2, 2, 2, "f", 2, ("d1 < d2", "m_r < d1 < m_r + m_f", "t_sf < cl < t_r"),
   ("m_r", _Z, "d1 - m_r", _Z), (_Z, "d2 - d1"), ("ci_f + 2*cp_f - cl", "cl"))
_g(12, 2, 2, 7, "", 1, ("d1 < d2", "m_r < d1 < m_r + m_f", "t_r < cl",
                        "d2 < d1 + m_r"),
   ("m_r", "d2 - d1", "d1 - m_r", _Z), (_Z, _Z),
   ("ci_f + 2*cp_f - (ci_r + cp_r)", "ci_r + cp_r"))
_g(13, 2, 2, 2, "f", 2, ("d1 < d2", "m_r < d1 < m_r + m_f", "t_r < cl < t_f",
                         "d2 > d1 + m_r"),
   ("m_r", "m_r", "d1 - m_r", _Z), (_Z, "d2 - (d1 + m_r)"),
   ("ci_f + 2*cp_f - cl", "cl"))
_g(14, 2, 2, 3, "f", 1, ("d1 < d2", "m_r < d1 < m_r + m_f", "cl > t_f",
                         "d1 + m_r < d2 < d1 + m_r + m_f"),
   ("m_r", "m_r", "d1 - m_r", "d2 - (d1 + m_r)"), (_Z, _Z),
   ("cp_f", "ci_f + cp_f"))
_g(15, 2, 2, 3, "f", 1, ("d1 < d2", "m_r < d1 < m_r + m_f", "cl > t_f",
                         "d1 + m_r + m_f < d2 < 2*m_r + 2*m_f"),
   ("m_r", "m_r", "d2 - 2*m_r - m_f", "m_f"), (_Z, _Z),
   ("cp_f", "ci_f + cp_f"))
_g(16, 2, 2, 4, "f", 2, ("d1 < d2", "m_r < d1 < m_r + m_f", "cl > t_f",
                         "d2 > 2*m_r + 2*m_f"),
   ("m_r", "m_r", "m_f", "m_f"), (_Z, "d2 - 2*m_r - 2*m_f"), ("cp_f", "cl"))

# cluster 3: peak in period 2, off-peak demand above all shared capacity
_g(17, 3, 2, 1, "", 1, ("d1 < d2", "d1 > m_r + m_f", "cl < t_sr"),
   (_Z, _Z, _Z, _Z), ("d1", "d2"), ("cl", "cl"))
_g(18, 3, 2, 1, "", 1, ("d1 < d2", "d1 > m_r + m_f", "t_sr < cl < t_sf"),
   ("m_r", _Z, _Z, _Z), ("d1 - m_r", "d2 - m_r"), ("cl", "cl"))
_g(19, 3, 2, 1, "", 1, ("d1 < d2", "d1 > m_r + m_f", "t_sf < cl < t_r"),
   ("m_r", _Z, "m_f", _Z), ("d1 - m_r - m_f", "d2 - m_r - m_f"), ("cl", "cl"))
_g(20, 3, 2, 5, "r", 1, ("d1 < d2", "d1 > m_r + m_f", "t_r < cl",
                         "m_r + m_f < d2 < 2*m_r + m_f"),
   ("m_r", "d2 - m_r - m_f", "m_f", _Z), ("d1 - m_r - m_f", _Z),
   ("cl", "ci_r + cp_r"))
_g(21, 3, 2, 1, "", 1, ("d1 < d2", "d1 > m_r + m_f", "t_r < cl < t_f",
                        "d2 > 2*m_r + m_f"),
   ("m_r", "m_r", "m_f", _Z), ("d1 - m_r - m_f", "d2 - 2*m_r - m_f"),
   ("cl", "cl"))
_g(22, 3, 2, 5, "f", 1, ("d1 < d2", "d1 > m_r + m_f", "cl > t_f",
                         "2*m_r + m_f < d2 < 2*m_r + 2*m_f"),
   ("m_r", "m_r", "m_f", "d2 - 2*m_r - m_f"), ("d1 - m_r - m_f", _Z),
   ("cl", "ci_f + cp_f"))
_g(23, 3, 2, 1, "", 1, ("d1 < d2", "d1 > m_r + m_f", "cl > t_f",
                        "d2 > 2*m_r + 2*m_f"),
   ("m_r", "m_r", "m_f", "m_f"), ("d1 - m_r - m_f", "d2 - 2*m_r - 2*m_f"),
   ("cl", "cl"))

# cluster 4: peak in period 1, off-peak demand below the renewable cap
_g(24, 4, 1, 1, "", 1, ("d2 < d1", "d2 < m_r", "cl < t_sr"),
   (_Z, _Z, _Z, _Z), ("d1", "d2"), ("cl", "cl"))
_g(25, 4, 1, 2, "r", 1, ("d2 < d1", "d2 < m_r", "t_sr < cl < t_r"),
   ("d2", _Z, _Z, _Z), ("d1 - d2", _Z), ("cl", "ci_r + 2*cp_r - cl"))
_g(26, 4, 1, 3, "r", 2, ("d2 < d1", "d2 < m_r", "t_r < cl", "d1 < m_r"),
   ("d1", _Z, _Z, _Z), (_Z, _Z), ("ci_r + cp_r", "cp_r"))
_g(27, 4, 1, 4, "r", 1, ("d2 < d1", "d2 < m_r", "t_r < cl < t_f", "d1 > m_r"),
   ("m_r", _Z, _Z, _Z), ("d1 - m_r", _Z), ("cl", "cp_r"))
_g(28, 4, 1, 6, "f", 2, ("d2 < d1", "d2 < m_r", "cl > t_f", "m_r < d1 < m_r + m_f"),
   ("m_r", _Z, "d1 - m_r", _Z), (_Z, _Z), ("ci_f + cp_f", "cp_r"))
_g(29, 4, 1, 4, "r", 1, ("d2 < d1", "d2 < m_r", "cl > t_f", "d1 > m_r + m_f"),
   ("m_r", _Z, "m_f", _Z), ("d1 - m_r - m_f", _Z), ("cl", "cp_r"))

# cluster 5: peak in period 1, off-peak demand needs shared fossil
_g(30, 5, 1, 1, "", 1, ("d2 < d1", "m_r < d2 < m_r + m_f", "cl < t_sr"),
   (_Z, _Z, _Z, _Z), ("d1", "d2"), ("cl", "cl"))
_g(31, 5, 1, 1, "", 1, ("d2 < d1", "m_r < d2 < m_r + m_f", "t_sr < cl < t_sf"),
   ("m_r", _Z, _Z, _Z), ("d1 - m_r", "d2 - m_r"), ("cl", "cl"))
_g(32, 5, 1, 2, "f", 1, ("d2 < d1", "m_r < d2 < m_r + m_f", "t_sf < cl < t_f"),
   ("m_r", _Z, "d2 - m_r", _Z), ("d1 - d2", _Z), ("cl", "ci_f + 2*cp_f - cl"))
_g(33, 5, 1, 3, "f", 2, ("d2 < d1", "m_r < d2 < m_r + m_f", "cl > t_f",
                         "d1 < m_r + m_f"),
   ("m_r", _Z, "d1 - m_r", _Z), (_Z, _Z), ("ci_f + cp_f", "cp_f"))
_g(34, 5, 1, 4, "f", 1, ("d2 < d1", "m_r < d2 < m_r + m_f", "cl > t_f",
                         "d1 > m_r + m_f"),
   ("m_r", _Z, "m_f", _Z), ("d1 - m_r - m_f", _Z), ("cl", "cp_f"))

# cluster 6: peak in period 1, off-peak demand above all shared capacity
_g(35, 6, 1, 1, "", 1, ("d2 < d1", "d2 > m_r + m_f", "cl < t_sr"),
   (_Z, _Z, _Z, _Z), ("d1", "d2"), ("cl", "cl"))
_g(36, 6, 1, 1, "", 1, ("d2 < d1", "d2 > m_r + m_f", "t_sr < cl < t_sf"),
   ("m_r", _Z, _Z, _Z), ("d1 - m_r", "d2 - m_r"), ("cl", "cl"))
_g(37, 6, 1, 1, "", 1, ("d2 < d1", "d2 > m_r + m_f", "t_sf < cl < t_r"),
   ("m_r", _Z, "m_f", _Z), ("d1 - m_r - m_f", "d2 - m_r - m_f"), ("cl", "cl"))
_g(38, 6, 1, 5, "r", 1, ("d2 < d1", "d2 > m_r + m_f", "t_r < cl",
                         "m_r + m_f < d2 < 2*m_r + m_f"),
   ("m_r", "d2 - m_r - m_f", "m_f", _Z), ("d1 - m_r - m_f", _Z),
   ("cl", "ci_r + cp_r"))
_g(39, 6, 1, 1, "", 1, ("d2 < d1", "d2 > m_r + m_f", "t_r < cl < t_f",
                        "d2 > 2*m_r + m_f"),
   ("m_r", "m_r", "m_f", _Z), ("d1 - m_r - m_f", "d2 - 2*m_r - m_f"),
   ("cl", "cl"))
_g(40, 6, 1, 5, "f", 1, ("d2 < d1", "d2 > m_r + m_f", "cl > t_f",
                         "2*m_r + m_f < d2 < 2*m_r + 2*m_f"),
   ("m_r", "m_r", "m_f", "d2 - 2*m_r - m_f"), ("d1 - m_r - m_f", _Z),
   ("cl", "ci_f + cp_f"))
_g(41, 6, 1, 1, "", 1, ("d2 < d1", "d2 > m_r + m_f", "cl > t_f",
                        "d2 > 2*m_r + 2*m_f"),
   ("m_r", "m_r", "m_f", "m_f"), ("d1 - m_r - m_f", "d2 - 2*m_r - 2*m_f"),
   ("cl", "cl"))

GROUPS = {spec.gid: spec for spec in _T}
assert len(GROUPS) == 41

CLUSTER_RANGES = {1: range(1, 9), 2: range(9, 17), 3: range(17, 24),
                  4: range(24, 30), 5: range(30, 35), 6: range(35, 42)}

# Within-cluster ladders: (lhs, rhs, group-if-lhs<=rhs) tried in order, with
# a fallback group when nothing matched.  Inclusive comparisons make exact
# boundary points land in the lower-numbered group.
_LADDERS = {
    1: ((("cl", "t_sr"), 1), (("cl", "t_r"), 2), (("d2", "d1 + m_r"), 3),
        (("d2", "2*m_r"), 4), (("cl", "t_f"), 5), (("d2", "2*m_r + m_f"), 6),
        (("d2", "2*m_r + 2*m_f"), 7)),
    2: ((("cl", "t_sr"), 9), (("cl", "t_sf"), 10), (("cl", "t_r"), 11),
        (("d2", "d1 + m_r"), 12), (("cl", "t_f"), 13),
        (("d2", "d1 + m_r + m_f"), 14), (("d2", "2*m_r + 2*m_f"), 15)),
    3: ((("cl", "t_sr"), 17), (("cl", "t_sf"), 18), (("cl", "t_r"), 19),
        (("d2", "2*m_r + m_f"), 20), (("cl", "t_f"), 21),
        (("d2", "2*m_r + 2*m_f"), 22)),
    4: ((("cl", "t_sr"), 24), (("cl", "t_r"), 25), (("d1", "m_r"), 26),
        (("cl", "t_f"), 27), (("d1", "m_r + m_f"), 28)),
    5: ((("cl", "t_sr"), 30), (("cl", "t_sf"), 31), (("cl", "t_f"), 32),
        (("d1", "m_r + m_f"), 33)),
    6: ((("cl", "t_sr"), 35), (("cl", "t_sf"), 36), (("cl", "t_r"), 37),
        (("d2", "2*m_r + m_f"), 38), (("cl", "t_f"), 39),
        (("d2", "2*m_r + 2*m_f"), 40)),
}
_LADDER_FALLBACK = {1: 8, 2: 16, 3: 23, 4: 29, 5: 34, 6: 41}


def _rel_margin(lhs, rhs):
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def classify(params: SystemParams, *, tol_bound: float = None) -> InstanceGroup:
    """Locate the instance group whose region contains the parameters.

    Points sitting exactly on a region boundary (within ``tol_bound``
    relative) land in the lower-numbered group and come back flagged; on
    boundaries the LP has multiple optima and the closed-form prices are
    only one valid selection.
    """
    tol_bound = DEFAULT.bound if tol_bound is None else tol_bound
    e = _env(params)
    if e["t_sf"] > e["t_r"] and _rel_margin(e["t_sf"], e["t_r"]) > 1e-12:
        raise ClassificationError(
            "group table requires shared fossil cost <= non-shared renewable "
            f"cost (CI_f/2 + CP_f = {e['t_sf']:g} > CI_r + CP_r = {e['t_r']:g})"
        )

    # An empty period makes its balance dual set-valued in both models
    # (its objective coefficient is the demand itself), so zero demand is
    # a boundary like any other tie.
    margins = [_rel_margin(params.d1, params.d2),
               _rel_margin(params.d1, 0.0), _rel_margin(params.d2, 0.0)]
    peak = 2 if params.d1 <= params.d2 else 1
    off = params.d1 if peak == 2 else params.d2

    margins.append(_rel_margin(off, e["m_r"]))
    margins.append(_rel_margin(off, e["m_r"] + e["m_f"]))
    base = 1 if peak == 2 else 4
    if off <= e["m_r"]:
        cluster = base
    elif off <= e["m_r"] + e["m_f"]:
        cluster = base + 1
    else:
        cluster = base + 2

    gid = _LADDER_FALLBACK[cluster]
    for (lhs, rhs), g in _LADDERS[cluster]:
        lv, rv = e[lhs], _ev(rhs, e)
        margins.append(_rel_margin(lv, rv))
        if lv <= rv:
            gid = g
            break

    margin = min(margins)
    return InstanceGroup(
        gid=gid,
        cluster=cluster,
        peak_period=peak,
        boundary=margin <= tol_bound,
        margin=margin,
    )


def _dispatch(params: SystemParams, invest):
    """Generation by operating-cost merit order given installed capacity."""
    i_r1, i_r2, i_f1, i_f2 = invest
    cap = {("r", 1): i_r1, ("r", 2): i_r1 + i_r2,
           ("f", 1): i_f1, ("f", 2): i_f1 + i_f2}
    p = {}
    led = []
    for t in (1, 2):
        d = params.demand[t - 1]
        p[("r", t)] = min(cap[("r", t)], d)
        p[("f", t)] = min(cap[("f", t)], d - p[("r", t)])
        led.append(d - p[("r", t)] - p[("f", t)])
    return p, tuple(led)


def analytic_solution(params: SystemParams, group: InstanceGroup) -> AnalyticResult:
    """Evaluate the group's closed-form decision and price pair.

    Generation is reconstructed by dispatching the fixed capacities in
    operating-cost merit order (renewable first), which is how the cost
    minimum operates any given build.
    """
    check = classify(params)
    if check.gid != group.gid:
        raise ClassificationError(
            f"group {group.gid} does not match these parameters (classify: {check.gid})"
        )
    spec = GROUPS[group.gid]
    e = _env(params)
    invest = tuple(_ev(s, e) for s in spec.invest)
    shed = tuple(_ev(s, e) for s in spec.shed)
    lrmc = tuple(_ev(s, e) for s in spec.lrmc)
    p, led = _dispatch(params, invest)
    scale = 1.0 + max(params.d1, params.d2)
    if max(abs(led[0] - shed[0]), abs(led[1] - shed[1])) > 1e-9 * scale:
        raise ClassificationError(
            f"group {group.gid}: tabulated shed {shed} does not match dispatch {led}"
        )
    decision = PrimalDecision(
        *[float(v) for v in invest],
        p[("r", 1)], p[("r", 2)], p[("f", 1)], p[("f", 2)],
        led[0], led[1],
    )
    return AnalyticResult(
        group=group,
        decision=decision,
        lrmc=lrmc,
        profile_id=spec.profile_id,
        used_options=used_options(params, decision),
    )


# ---------------------------------------------------------------------------
# option bookkeeping (used by pricing and the short-run rules)
# ---------------------------------------------------------------------------


#: Share of the largest demand or cap (plus one) up to which an amount of
#: capacity or energy counts as none.
_ZERO = 1e-9


def _zero_amount(params: SystemParams) -> float:
    return _ZERO * (1.0 + max(params.d1, params.d2, params.m_r, params.m_f))


def option_cost(option: str, params: SystemParams) -> float:
    e = _env(params)
    return {"SR": e["t_sr"], "SF": e["t_sf"], "R": e["t_r"], "F": e["t_f"]}[option]


def _shared_amount(decision: PrimalDecision, g: str) -> float:
    return min(decision.invested(g, 1), decision.generation(g, 1),
               decision.generation(g, 2))


def used_options(params: SystemParams, decision: PrimalDecision):
    """Per-period option sets, by period of investment.

    An option appears in the period whose investment funds it: the shared
    slice of period-1 capacity shows up in both periods; the remainder of
    period-1 capacity is that period's non-shared option even when its
    energy serves the other period; period-2 investments are period-2
    non-shared options.
    """
    tol = _zero_amount(params)
    first, second = set(), set()
    for g, label_s, label_n in (("r", "SR", "R"), ("f", "SF", "F")):
        shared = _shared_amount(decision, g)
        if shared > tol:
            first.add(label_s)
            second.add(label_s)
        if decision.invested(g, 1) - shared > tol:
            first.add(label_n)
        if decision.invested(g, 2) > tol:
            second.add(label_n)
    return (frozenset(first), frozenset(second))


def generating_options(params: SystemParams, decision: PrimalDecision, t: int):
    """Options whose energy actually serves period t's demand."""
    tol = _zero_amount(params)
    out = set()
    for g, label_s, label_n in (("r", "SR", "R"), ("f", "SF", "F")):
        gen = decision.generation(g, t)
        if gen <= tol:
            continue
        shared = _shared_amount(decision, g)
        if shared > tol:
            out.add(label_s)
        if gen - shared > tol:
            out.add(label_n)
    return frozenset(out)


def marginal_option(params: SystemParams, decision: PrimalDecision, t: int):
    """Most expensive option generating in period t, by average unit cost.

    This is the investment-side marginal, used by the cost-allocation
    rules.  Ties in average cost (possible when shared fossil and
    non-shared renewable coincide) resolve toward the later rung of the
    cost ladder.  None if nothing runs.
    """
    opts = generating_options(params, decision, t)
    if not opts:
        return None
    order = {o: k for k, o in enumerate(OPTIONS)}
    return max(opts, key=lambda o: (option_cost(o, params), order[o]))


def marginal_cp(params: SystemParams, decision: PrimalDecision, t: int):
    """Operating cost of period t's dispatch-marginal technology.

    The dispatch marginal is the technology that serves one more unit of
    demand: the most expensive one actually generating in the period,
    since that is the unit a fixed-capacity model backs off first.  (This
    can differ from ``marginal_option``: where non-shared renewable is the
    investment margin but fossil also runs, the short-run margin is
    fossil.)  An empty period falls back to the cheapest technology --
    the capacity-slack resolution grants every technology headroom, so
    that is what serves the first unit.  None when positive demand sheds
    completely, where an increment can only shed too.
    """
    tol = _zero_amount(params)
    if decision.generation("f", t) > tol:
        return params.cp_f
    if decision.generation("r", t) > tol:
        return params.cp_r
    if params.demand[t - 1] <= tol:
        return params.cp_r
    return None


# ---------------------------------------------------------------------------
# representative parameters and CSV export
# ---------------------------------------------------------------------------

# Cost set with a strictly ordered ladder: 31 < 45 < 61 < 80.
_REP_COSTS = dict(ci_r=60.0, cp_r=1.0, m_r=3000.0, ci_f=70.0, cp_f=10.0, m_f=4000.0)

_REP_BANDS = {
    1: dict(cl=20, d1=2000, d2=4000), 2: dict(cl=45, d1=2000, d2=4000),
    3: dict(cl=70, d1=2000, d2=4000), 4: dict(cl=70, d1=2000, d2=5500),
    5: dict(cl=70, d1=2000, d2=7000), 6: dict(cl=120, d1=2000, d2=7000),
    7: dict(cl=120, d1=2000, d2=12000), 8: dict(cl=120, d1=2000, d2=15000),
    9: dict(cl=20, d1=4000, d2=6000), 10: dict(cl=40, d1=4000, d2=6000),
    11: dict(cl=50, d1=4000, d2=6000), 12: dict(cl=70, d1=4000, d2=6000),
    13: dict(cl=70, d1=4000, d2=8000), 14: dict(cl=120, d1=4000, d2=8000),
    15: dict(cl=120, d1=4000, d2=12500), 16: dict(cl=120, d1=4000, d2=15000),
    17: dict(cl=20, d1=8000, d2=9000), 18: dict(cl=40, d1=8000, d2=9000),
    19: dict(cl=50, d1=8000, d2=9000), 20: dict(cl=70, d1=8000, d2=9000),
    21: dict(cl=70, d1=8000, d2=11000), 22: dict(cl=120, d1=8000, d2=12000),
    23: dict(cl=120, d1=8000, d2=15000),
    24: dict(cl=20, d1=4000, d2=2000), 25: dict(cl=45, d1=4000, d2=2000),
    26: dict(cl=70, d1=2500, d2=2000), 27: dict(cl=70, d1=4000, d2=2000),
    28: dict(cl=120, d1=5000, d2=2000), 29: dict(cl=120, d1=8000, d2=2000),
    30: dict(cl=20, d1=5000, d2=4000), 31: dict(cl=40, d1=5000, d2=4000),
    32: dict(cl=60, d1=5000, d2=4000), 33: dict(cl=120, d1=5000, d2=4000),
    34: dict(cl=120, d1=8000, d2=4000),
    35: dict(cl=20, d1=9000, d2=8000), 36: dict(cl=40, d1=9000, d2=8000),
    37: dict(cl=50, d1=9000, d2=8000), 38: dict(cl=70, d1=9000, d2=8000),
    39: dict(cl=70, d1=12000, d2=11000), 40: dict(cl=120, d1=13000, d2=12000),
    41: dict(cl=120, d1=16000, d2=15000),
}


def representative_params(gid: int) -> SystemParams:
    """A parameter set sitting well inside the group's region."""
    if gid not in _REP_BANDS:
        raise ClassificationError(f"group id must be 1..41, got {gid}")
    return SystemParams.from_values(**_REP_COSTS, **_REP_BANDS[gid])


def table_csv() -> str:
    """The embedded group table as CSV, for documentation."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["group", "cluster", "peak_period", "conditions",
                "I_r1", "I_r2", "I_f1", "I_f2", "L_1", "L_2",
                "lambda_1", "lambda_2", "profile", "marginal_tech"])
    for gid in sorted(GROUPS):
        s = GROUPS[gid]
        w.writerow([s.gid, s.cluster, s.peak_period, "; ".join(s.conditions),
                    *s.invest, *s.shed, *s.lrmc, s.profile_id,
                    s.profile_tech or "-"])
    return buf.getvalue()
