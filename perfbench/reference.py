"""Independent long-run reference, solved with HiGHS through scipy.

The expansion model is written out here from the paper's statement, not
built with genmargin's own model builders, so the program is never checked
against itself.  Investment caps are variable bounds here (rows in the
package), which makes the transcription independent in form as well.

Only the benchmark imports this module; the package keeps numpy as its
only runtime dependency.
"""

from __future__ import annotations

import math

from scipy.optimize import linprog

_OPTIONS = {"primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10}
#: Relative slack on the optimal objective when pinning the dual face.
FACE_SLACK = 1e-9


class ReferenceSolveError(RuntimeError):
    pass


def _key(p):
    return tuple(p[k] for k in ("ci_r", "cp_r", "m_r", "ci_f", "cp_f", "m_f",
                                "cl", "d1", "d2"))


def long_run(p: dict):
    """(optimal cost, (lambda_1, lambda_2)) of the long-run expansion model.

    Variables (I_r1, I_r2, I_f1, I_f2, P_r1, P_r2, P_f1, P_f2, L_1, L_2):
    invest in either period up to the build cap M_g, capacity built in
    period 1 serves both periods, generation up to installed capacity,
    demand met by generation plus shed load at cost CL.
    """
    c = [p["ci_r"], p["ci_r"], p["ci_f"], p["ci_f"],
         p["cp_r"], p["cp_r"], p["cp_f"], p["cp_f"], p["cl"], p["cl"]]
    a_ub = [
        [-1, 0, 0, 0, 1, 0, 0, 0, 0, 0],     # P_r1 <= I_r1
        [-1, -1, 0, 0, 0, 1, 0, 0, 0, 0],    # P_r2 <= I_r1 + I_r2
        [0, 0, -1, 0, 0, 0, 1, 0, 0, 0],     # P_f1 <= I_f1
        [0, 0, -1, -1, 0, 0, 0, 1, 0, 0],    # P_f2 <= I_f1 + I_f2
    ]
    a_eq = [
        [0, 0, 0, 0, 1, 0, 1, 0, 1, 0],      # P_r1 + P_f1 + L_1 = D_1
        [0, 0, 0, 0, 0, 1, 0, 1, 0, 1],      # P_r2 + P_f2 + L_2 = D_2
    ]
    bounds = [(0, p["m_r"])] * 2 + [(0, p["m_f"])] * 2 + [(0, None)] * 6
    res = linprog(c, A_ub=a_ub, b_ub=[0] * 4, A_eq=a_eq, b_eq=[p["d1"], p["d2"]],
                  bounds=bounds, method="highs", options=_OPTIONS)
    if res.status != 0:
        raise ReferenceSolveError(f"long-run reference failed: {res.message}")
    return float(res.fun), tuple(float(v) for v in res.eqlin.marginals)


def price_interval(p: dict, z: float, t: int):
    """[min, max] of lambda_t over every optimal dual of the long-run model.

    The dual is written from the primal above: prices lambda free, capacity
    values beta >= 0, build-cap rents gamma >= 0; its objective is pinned
    to the primal optimum ``z`` (less a relative slack of FACE_SLACK).
    """
    # y = (lam_1, lam_2, b_r1, b_r2, b_f1, b_f2, g_r1, g_r2, g_f1, g_f2)
    a_ub = [
        [1, 0, -1, 0, 0, 0, 0, 0, 0, 0],     # P_r1: lam_1 - b_r1 <= CP_r
        [0, 1, 0, -1, 0, 0, 0, 0, 0, 0],     # P_r2
        [1, 0, 0, 0, -1, 0, 0, 0, 0, 0],     # P_f1
        [0, 1, 0, 0, 0, -1, 0, 0, 0, 0],     # P_f2
        [1, 0, 0, 0, 0, 0, 0, 0, 0, 0],      # L_1: lam_1 <= CL
        [0, 1, 0, 0, 0, 0, 0, 0, 0, 0],      # L_2
        [0, 0, 1, 1, 0, 0, -1, 0, 0, 0],     # I_r1: b_r1 + b_r2 - g_r1 <= CI_r
        [0, 0, 0, 1, 0, 0, 0, -1, 0, 0],     # I_r2: b_r2 - g_r2 <= CI_r
        [0, 0, 0, 0, 1, 1, 0, 0, -1, 0],     # I_f1
        [0, 0, 0, 0, 0, 1, 0, 0, 0, -1],     # I_f2
        # optimal face: D.lam - M.g >= z
        [-p["d1"], -p["d2"], 0, 0, 0, 0, p["m_r"], p["m_r"], p["m_f"], p["m_f"]],
    ]
    b_ub = [p["cp_r"], p["cp_r"], p["cp_f"], p["cp_f"], p["cl"], p["cl"],
            p["ci_r"], p["ci_r"], p["ci_f"], p["ci_f"],
            -(z - FACE_SLACK * (1.0 + abs(z)))]
    bounds = [(None, None)] * 2 + [(0, None)] * 8
    ends = []
    for sign in (1.0, -1.0):
        c = [0.0] * 10
        c[t - 1] = sign
        res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs",
                      options=_OPTIONS)
        if res.status == 3:
            ends.append(-math.inf if sign > 0 else math.inf)
        elif res.status == 0:
            ends.append(sign * float(res.fun))
        else:
            raise ReferenceSolveError(f"dual-face reference failed: {res.message}")
    return ends[0], ends[1]


class Reference:
    """Memoized reference solves for one check pass."""

    def __init__(self):
        self._lr = {}
        self._iv = {}

    def long_run(self, p):
        k = _key(p)
        if k not in self._lr:
            self._lr[k] = long_run(p)
        return self._lr[k]

    def interval(self, p, t):
        k = (_key(p), t)
        if k not in self._iv:
            self._iv[k] = price_interval(p, self.long_run(p)[0], t)
        return self._iv[k]
