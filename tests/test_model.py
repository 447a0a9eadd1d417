import hashlib
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from genmargin.lp import detect_degeneracy, dual_value_range, solve_lp
from genmargin.model import (
    ModelError,
    PrimalDecision,
    SystemParams,
    _check_istar,
    build_lrmc_dual,
    build_lrmc_primal,
    build_srmc_dual,
    build_srmc_primal,
    extract_decision,
    extract_duals,
    solve_lrmc,
)
from genmargin.sampling import random_params
from genmargin.tolerances import current


def canonical(cl=200.0, d1=2000.0, d2=8000.0):
    return SystemParams.from_values(
        ci_r=60, cp_r=1, m_r=3000, ci_f=82, cp_f=20, m_f=4000,
        cl=cl, d1=d1, d2=d2,
    )


def random_valid_params(rng):
    while True:
        ci_r = rng.uniform(5, 100)
        ci_f = ci_r * rng.uniform(1.05, 3.0)
        cp_r = rng.uniform(0.5, 20)
        cp_f = cp_r * rng.uniform(1.05, 3.0)
        m_r = rng.uniform(500, 5000)
        m_f = rng.uniform(500, 5000)
        cl = rng.uniform(1, 400)
        d1 = rng.uniform(0, 2 * (m_r + m_f))
        d2 = rng.uniform(0, 2 * (m_r + m_f))
        try:
            return SystemParams.from_values(ci_r, cp_r, m_r, ci_f, cp_f, m_f,
                                            cl, d1, d2)
        except ModelError:
            continue


class TestParams:
    def test_cost_ordering_enforced(self):
        with pytest.raises(ModelError):
            SystemParams.from_values(82, 1, 3000, 60, 20, 4000, 200, 1, 2)
        with pytest.raises(ModelError):
            SystemParams.from_values(60, 20, 3000, 82, 1, 4000, 200, 1, 2)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    # The message names the config field; what the field measures only
    # labels the case.
    @pytest.mark.parametrize("field, quantity", [
        ("ci_r", "invest_cost"), ("cp_r", "operating_cost"), ("m_r", "max_capacity"),
        ("ci_f", "invest_cost"), ("cp_f", "operating_cost"), ("m_f", "max_capacity"),
        ("cl", "loadshed_cost"), ("d1", "d1"), ("d2", "d2")])
    def test_non_finite_parameter_is_named(self, field, quantity, value):
        values = dict(ci_r=60, cp_r=1, m_r=3000, ci_f=82, cp_f=20, m_f=4000,
                      cl=200, d1=2000, d2=8000)
        values[field] = value
        with pytest.raises(ModelError, match=rf"^{field} must be finite, got {value!r}$"):
            SystemParams.from_values(**values)


class TestLrmcPrimal:
    def test_canonical_objective_vector(self):
        p = build_lrmc_primal(canonical(cl=80.0, d2=4000.0))
        assert_allclose(p.c, [60, 60, 82, 82, 1, 1, 20, 20, 80, 80])
        assert p.relations == ("=", "=", ">=", ">=", ">=", ">=",
                               ">=", ">=", ">=", ">=")

    def test_group3_objective_value(self):
        # Frozen by hand: D1*(CI_r + 2 CP_r) + (D2 - D1)*(CI_r + CP_r)
        #              = 2000*62 + 2000*61 = 246000
        prob = build_lrmc_primal(canonical(cl=80.0, d2=4000.0))
        sol = solve_lp(prob)
        assert_allclose(sol.objective, 246000.0, rtol=1e-10)

    def test_zero_demand(self):
        prob = build_lrmc_primal(canonical(d1=0.0, d2=0.0))
        sol = solve_lp(prob)
        assert_allclose(sol.objective, 0.0, atol=1e-9)
        assert_allclose(sol.x, np.zeros(10), atol=1e-9)

    def test_equal_caps_mirror_bound_rows(self):
        params = SystemParams.from_values(60, 1, 3500, 82, 20, 3500, 200, 1000, 2000)
        prob = build_lrmc_primal(params)
        assert_allclose(prob.b[6:], [-3500] * 4)


class TestLrmcDual:
    def test_loadshed_row_is_price_cap(self):
        prob = build_lrmc_dual(canonical())
        i = prob.row_labels.index("L_1")
        row = prob.A[i]
        assert_allclose(row, np.eye(10)[0])
        assert_allclose(prob.b[i], 200.0)

    def test_duality_group6(self):
        params = canonical()   # d2 = 8000, cl = 200 -> fossil marginal regime
        zp = solve_lp(build_lrmc_primal(params)).objective
        zd = solve_lp(build_lrmc_dual(params)).objective
        assert_allclose(zp, zd, rtol=1e-9)

    def test_duality_randomized(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            params = random_valid_params(rng)
            zp = solve_lp(build_lrmc_primal(params)).objective
            zd = solve_lp(build_lrmc_dual(params)).objective
            assert abs(zp - zd) <= 1e-8 * (1 + abs(zp))

    def test_zero_demand_dual(self):
        assert_allclose(solve_lp(build_lrmc_dual(canonical(d1=0, d2=0))).objective,
                        0.0, atol=1e-9)


class TestSrmc:
    def test_same_optimum_as_lrmc(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            params = random_valid_params(rng)
            lr = solve_lrmc(params)
            srmc = solve_lp(build_srmc_primal(params, lr.decision))
            assert abs(srmc.objective - lr.objective) <= 1e-8 * (1 + abs(lr.objective))

    def test_group3_degenerate_at_zero_epsilon(self):
        params = canonical(cl=80.0, d2=4000.0)
        lr = solve_lrmc(params)
        prob = build_srmc_primal(params, lr.decision, epsilon=0.0)
        sol = solve_lp(prob)
        rep = detect_degeneracy(prob, sol)
        assert rep.primal_degenerate
        assert rep.dual_multiple[0]       # balance_1 dual is an interval
        lo, hi = dual_value_range(prob, "balance_1", solution=sol)
        assert_allclose([lo, hi], [1.0, 80.0], atol=1e-7)

    def test_empty_period_dual_is_an_interval(self):
        # no demand in period 1: its balance dual is unbounded below
        params = canonical(d1=0.0, d2=8000.0)
        prob = build_srmc_primal(params, solve_lrmc(params).decision, epsilon=0.0)
        sol = solve_lp(prob)
        assert dual_value_range(prob, "balance_1", solution=sol)[0] == -math.inf
        assert detect_degeneracy(prob, sol).dual_multiple[0]

    def test_group3_interval_against_vertex_enumeration(self):
        # independent route: enumerate the optimal dual vertices outright
        from lp_oracle import brute_force_dual_range
        params = canonical(cl=80.0, d2=4000.0)
        lr = solve_lrmc(params)
        prob = build_srmc_primal(params, lr.decision, epsilon=0.0)
        for row in (0, 1):
            lo, hi = brute_force_dual_range(prob.c, prob.A, prob.relations,
                                            prob.b, row=row)
            assert_allclose([lo, hi], [1.0, 80.0], atol=1e-7)
            assert_allclose(dual_value_range(prob, row, solution=solve_lp(prob)), [lo, hi],
                            atol=1e-7)

    def test_group3_epsilon_resolves(self):
        params = canonical(cl=80.0, d2=4000.0)
        lr = solve_lrmc(params)
        prob = build_srmc_primal(params, lr.decision, epsilon=1e-3)
        sol = solve_lp(prob)
        assert_allclose(sol.duals[0], 1.0, atol=1e-9)   # off-peak price = CP_r
        lo, hi = dual_value_range(prob, "balance_1", solution=sol)
        assert_allclose([lo, hi], [1.0, 1.0], atol=1e-9)

    def test_no_capacity_full_shed(self):
        params = canonical()
        prob = build_srmc_primal(params, (0, 0, 0, 0), epsilon=0.0)
        sol = solve_lp(prob)
        assert_allclose(sol.duals[:2], [200.0, 200.0])
        assert_allclose(sol.objective, 200.0 * (2000 + 8000))

    def test_negative_inputs_rejected(self):
        params = canonical()
        with pytest.raises(ModelError):
            build_srmc_primal(params, (-1, 0, 0, 0))
        with pytest.raises(ModelError):
            build_srmc_primal(params, (0, 0, 0, 0), epsilon=-1e-9)

    @pytest.mark.parametrize("istar", [
        (0.0, -0.0, 3.5, -1e-12), [1.0, 2.0, 3.0, 4.0], np.array([-0.0, 0.0, 1e308, 7.0]),
        (math.nan, 1.0, 2.0, 3.0), (math.inf, 0.0, 0.0, 0.0), (5, 0, 0, 2),
        (1.0, 2.0, 3.0), [[1.0, 2.0], [3.0, 4.0]], 2.0, (0.0, -1e-6, 0.0, 0.0),
        "decision",
    ])
    def test_istar_check_matches_numpy(self, istar):
        # the numpy implementation that the float one replaced, as reference
        def reference(istar):
            arr = np.asarray(istar.investments() if isinstance(istar, PrimalDecision)
                             else istar, dtype=float)
            if arr.shape != (4,):
                raise ModelError("istar must hold the four investments "
                                 "(I_r1, I_r2, I_f1, I_f2)")
            if np.any(arr < -current().feas):
                raise ModelError("negative invested capacities rejected")
            return np.maximum(arr, 0.0)

        if isinstance(istar, str):
            istar = PrimalDecision(-0.0, 1.0, -1e-10, 2.0, 0, 0, 0, 0, 0, 0)
        try:
            want = reference(istar).tobytes()
        except ModelError as exc:
            with pytest.raises(ModelError, match=f"^{re.escape(str(exc))}$"):
                _check_istar(istar)
        else:
            got = _check_istar(istar)
            assert all(type(v) is float for v in got)
            assert np.array(got).tobytes() == want

    def test_srmc_dual_matches(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            params = random_valid_params(rng)
            lr = solve_lrmc(params)
            zp = solve_lp(build_srmc_primal(params, lr.decision)).objective
            zd = solve_lp(build_srmc_dual(params, lr.decision)).objective
            assert abs(zp - zd) <= 1e-8 * (1 + abs(zp))


class TestExtraction:
    def test_group3_decision_and_duals(self):
        params = canonical(cl=80.0, d2=4000.0)
        lr = solve_lrmc(params)
        d = lr.decision
        assert_allclose(
            [d.i_r1, d.i_r2, d.i_f1, d.i_f2], [2000, 2000, 0, 0], atol=1e-7)
        assert_allclose([lr.duals.lam_1, lr.duals.lam_2], [1.0, 61.0], atol=1e-9)

    def test_group1_full_shed(self):
        params = canonical(cl=20.0, d2=4000.0)   # CL below every option
        lr = solve_lrmc(params)
        d = lr.decision
        assert_allclose([d.l_1, d.l_2], [2000, 4000], atol=1e-7)
        assert_allclose([lr.duals.lam_1, lr.duals.lam_2], [20.0, 20.0], atol=1e-9)

    def test_zero_demand_extraction(self):
        lr = solve_lrmc(canonical(d1=0, d2=0))
        assert_allclose(lr.decision.as_vector(), np.zeros(10), atol=1e-9)

    def test_wrong_shape_rejected(self):
        from genmargin.lp import LinearProgram
        p = LinearProgram(sense="min", c=[1.0], A=[[1.0]], relations=(">=",), b=[1.0])
        sol = solve_lp(p)
        with pytest.raises(ModelError):
            extract_decision(sol)
        with pytest.raises(ModelError):
            extract_duals(sol)

    def test_roundtrip_feasible_randomized(self):
        # build -> solve -> extract keeps every decision invariant, over
        # the whole valid parameter space (no ladder assumption needed)
        rng = np.random.default_rng(3)
        for _ in range(1000):
            params = random_valid_params(rng)
            lr = solve_lrmc(params)
            assert lr.decision.is_feasible(params)
            assert lr.duals.max_dual_violation(params) <= 1e-6

    def test_objective_monotone_in_demand(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            params = random_valid_params(rng)
            z = solve_lrmc(params).objective
            bumped = SystemParams.from_values(
                params.ci_r, params.cp_r, params.m_r, params.ci_f,
                params.cp_f, params.m_f, params.cl,
                params.d1 + 50.0, params.d2,
            )
            assert solve_lrmc(bumped).objective >= z - 1e-7


def lp_bytes(p):
    """Every field of an LP, arrays byte for byte (dtype and shape too)."""
    parts = [p.sense.encode(), repr(p.relations).encode(), repr(p.var_labels).encode(),
             repr(p.row_labels).encode(), repr(p.objective_offset).encode()]
    for a in (p.c, p.A, p.b, p.lower_bounds):
        parts.append(a.dtype.str.encode() + repr(a.shape).encode() + a.tobytes())
    return b"|".join(parts)


#: SHA-256 of the builders' LPs below, made when each builder still filled
#: in its whole matrix entry by entry
BUILDERS_DIGEST = "f02b0942585895dcde9be1e7c7b04b5638e59ac9e48ea3a129d0d9106e9e540d"


def test_builders_are_pinned():
    rng = np.random.default_rng(7)
    draws = [random_params(rng) for _ in range(200)]
    draws += [canonical(d1=0.0, d2=0.0), canonical(d2=0.0)]     # zero demand
    h = hashlib.sha256()
    for params in draws:
        lr = solve_lrmc(params)
        h.update(lp_bytes(build_lrmc_primal(params)))
        h.update(lp_bytes(build_lrmc_dual(params)))
        # the optimal build, zero istar and a slightly negative one
        for istar in (lr.decision, (0.0, 0.0, 0.0, 0.0), [1.0, 2.0, 3.0, -1e-12]):
            for eps in (0.0, 1e-6 * max(params.d1, params.d2, 1.0), 0.37):
                h.update(lp_bytes(build_srmc_primal(params, istar, epsilon=eps)))
    assert h.hexdigest() == BUILDERS_DIGEST


class TestFeasibility:
    """``max_violation`` and ``is_feasible`` on the group-6 optimum below
    (I = (3000, 3000, 0, 2000), P = (2000, 6000, 0, 2000), no shedding)
    and on builds the workloads never check, each breaking one constraint
    family of it."""

    PARAMS = canonical()
    BUILD = dict(i_r1=3000.0, i_r2=3000.0, i_f1=0.0, i_f2=2000.0, p_r1=2000.0,
                 p_r2=6000.0, p_f1=0.0, p_f2=2000.0, l_1=0.0, l_2=0.0)

    def decision(self, **changes):
        from genmargin.model import PrimalDecision
        return PrimalDecision(**dict(self.BUILD, **changes))

    # (changes, max_violation, is_feasible at the default 1e-9 * (1 + 8000)),
    # pinned on the numpy-vector implementation
    CASES = [
        ({}, -0.0, True),
        (dict(p_f1=-0.5, p_r1=2000.5), 0.5, False),             # negative entry
        (dict(l_2=3.25), 3.25, False),                          # balance gap
        (dict(p_r2=6100.0, p_f2=1900.0), 100.0, False),         # generation above capacity
        (dict(i_f2=4500.0), 500.0, False),                      # build above m_f
        (dict(i_r2=3000.125, p_r2=6000.125, p_f2=1999.875), 0.125, False),  # above m_r
        (dict(l_1=-1e-6, p_r1=2000.000001), 1e-06, True),       # negative within tolerance
    ]

    def feasible_at(self, d, feas, monkeypatch):
        """``d.is_feasible`` with ``GENMARGIN_TOL_FEAS`` set to ``feas``."""
        monkeypatch.setenv("GENMARGIN_TOL_FEAS", repr(feas))
        current.cache_clear()
        return d.is_feasible(self.PARAMS)

    @pytest.mark.parametrize("changes,violation,feasible", CASES)
    def test_pinned(self, changes, violation, feasible, monkeypatch):
        d = self.decision(**changes)
        v = d.max_violation(self.PARAMS)
        # a plain float, equal to the pinned figure to the sign of zero
        assert type(v) is float and repr(v) == repr(violation)
        assert d.is_feasible(self.PARAMS) is feasible
        assert self.feasible_at(d, 1e-9, monkeypatch) is feasible
        # the limit scales with 1 + the largest demand or cap
        assert self.feasible_at(d, abs(violation) / 8001 * 1.001, monkeypatch)
        assert self.feasible_at(d, abs(violation) / 8001 * 0.999, monkeypatch) is (violation <= 0)
