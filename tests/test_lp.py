import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from genmargin import lp as lp_module
from genmargin.lp import (
    LinearProgram,
    LpInputError,
    IterationLimitError,
    detect_degeneracy,
    dual_value_range,
    solve_lp,
)

from lp_oracle import brute_force_solve, explicit_dual, region_ranges, same_ends


def lp(sense, c, A, rel, b, lb=None, **kw):
    return LinearProgram(sense=sense, c=c, A=A, relations=rel, b=b,
                         lower_bounds=lb, **kw)


class TestBasics:
    def test_single_binding_constraint(self):
        # min x  s.t. x >= 3
        p = lp("min", [1.0], [[1.0]], (">=",), [3.0])
        sol = solve_lp(p)
        assert sol.optimal
        assert_allclose(sol.x, [3.0])
        assert_allclose(sol.duals, [1.0])
        assert_allclose(sol.objective, 3.0)

    def test_empty_feasible_set(self):
        p = lp("min", [0.0], [[1.0], [1.0]], (">=", "<="), [1.0, 0.0])
        sol = solve_lp(p)
        assert sol.status == "infeasible"

    def test_unbounded(self):
        p = lp("min", [-1.0], [[1.0]], (">=",), [0.0])
        assert solve_lp(p).status == "unbounded"

    def test_free_variable(self):
        # min y s.t. y >= -5, y free -> y = -5
        p = lp("min", [1.0], [[1.0]], (">=",), [-5.0], lb=[-np.inf])
        sol = solve_lp(p)
        assert_allclose(sol.x, [-5.0])
        assert_allclose(sol.objective, -5.0)
        assert sol.basis == ("x0~",)          # the negative half of the split

    def test_maximization_and_dual_signs(self):
        # max 3x + 2y s.t. 2x + y <= 10, x + y <= 8, x <= 4
        p = lp("max", [3.0, 2.0], [[2, 1], [1, 1], [1, 0]],
               ("<=", "<=", "<="), [10, 8, 4])
        sol = solve_lp(p)
        assert sol.optimal
        assert_allclose(sol.x, [2.0, 6.0])
        assert_allclose(sol.objective, 18.0)
        assert np.all(sol.duals >= -1e-9)     # <= rows of a max: nonneg duals
        assert_allclose(p.b @ sol.duals, sol.objective)

    def test_equality_rows_two_phase(self):
        # min x + y s.t. x + y = 4, x - y = 2
        p = lp("min", [1.0, 1.0], [[1, 1], [1, -1]], ("=", "="), [4, 2])
        sol = solve_lp(p)
        assert_allclose(sol.x, [3.0, 1.0])
        assert_allclose(sol.objective, 4.0)

    def test_objective_offset(self):
        p = lp("min", [1.0], [[1.0]], (">=",), [3.0])
        p2 = LinearProgram(sense="min", c=[1.0], A=[[1.0]], relations=(">=",),
                           b=[3.0], objective_offset=100.0)
        assert_allclose(solve_lp(p2).objective, solve_lp(p).objective + 100.0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(LpInputError):
            lp("min", [1.0, 2.0], [[1.0]], (">=",), [3.0])
        with pytest.raises(LpInputError):
            lp("min", [1.0], [[1.0]], (">=", "<="), [3.0])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(LpInputError):
            lp("min", [1.0, 1.0], [[1.0, 1.0]], (">=",), [1.0],
               var_labels=("a", "a"))

    # (overrides of a valid 2x2 problem, message of the first defect in
    # check order): sense, c, b, relations, lower bounds, A and b, labels
    MALFORMED = [
        (dict(sense="max!", c="abc"), "sense must be"),
        (dict(c=[[1.0, 2.0]]), "c must be one-dimensional"),
        (dict(c=[math.inf, 1.0], b=[1.0]), "c must be finite"),
        (dict(c=[math.nan, 1.0], lower_bounds="zz"), "c must be finite"),
        (dict(b=[[1.0, 0.0]]), "b must be one-dimensional"),
        (dict(relations=(">=",)), r"\|relations\| = 1"),
        (dict(relations=(">=", "<")), "unknown relation"),
        (dict(lower_bounds=[0.0]), "lower_bounds length"),
        (dict(lower_bounds=[0.0, math.inf]), "finite or -inf"),
        (dict(A=[[math.inf, 1.0], [1.0, -1.0]], lower_bounds=[math.nan, 0.0]),
         "finite or -inf"),
        (dict(A=[[math.inf, -math.inf], [1.0, -1.0]]), "A, b must be finite"),
        (dict(b=[1.0, math.nan], var_labels=("a", "a")), "A, b must be finite"),
        (dict(var_labels=("a",)), "variable labels"),
        (dict(row_labels=("r", "r")), "row labels"),
        # then one non-finite entry alone per field (appended: the ids above stay)
        (dict(lower_bounds=[math.nan, 0.0]), "finite or -inf"),
        (dict(c=[-math.inf, 1.0]), "c must be finite"),
        (dict(A=[[math.nan, 1.0], [1.0, -1.0]]), "A, b must be finite"),
        (dict(b=[math.inf, 0.0]), "A, b must be finite"),
        (dict(lower_bounds=[0.0, 1.0], var_labels=("a", "a")), "finite lower bounds must be 0"),
    ]

    @pytest.mark.parametrize("over, message", MALFORMED)
    def test_first_defect_named(self, over, message):
        base = dict(sense="min", c=[1.0, 2.0], A=[[1.0, 1.0], [1.0, -1.0]],
                    relations=(">=", "<="), b=[1.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LpInputError, match=message):
                LinearProgram(**dict(base, **over))

    def test_extreme_finite_data_accepted(self):
        # sums that overflow and free variables are not defects
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = lp("min", [1e308, 1e308], [[1e308, 1e308], [1e308, -1.0]],
                   (">=", "<="), [1e308, 1e308], lb=[-math.inf, -math.inf])
        assert p.c[0] == 1e308 and np.isneginf(p.lower_bounds).all()
        assert not (p.A.flags.writeable or p.c.flags.writeable)

    @pytest.mark.parametrize("bound", [2.0, -1.5, 5e-324])
    def test_finite_nonzero_lower_bound_rejected(self, bound):
        # a finite bound other than 0 is not supported: write it as a row
        with pytest.raises(LpInputError, match="^finite lower bounds must be 0$"):
            lp("min", [1.0, 1.0], [[1.0, 1.0]], (">=",), [1.0], lb=[-math.inf, bound])
        sol = solve_lp(lp("min", [1.0], [[1.0]], (">=",), [1.0], lb=[-0.0]))
        assert sol.x.tobytes() == np.array([1.0]).tobytes()

    def test_original_variables_read_plus_zero_in_contiguous_rows(self):
        # x0 >= 0 and x1 free (columns x0, x1, x1~, then a slack): a -0.0
        # basic value reads +0.0, and each row of x is contiguous, so that
        # c @ x sums in the same order whichever path made x
        p = lp("min", [1.0, 1.0], [[1.0, 1.0]], (">=",), [1.0], lb=[0.0, -math.inf])
        x = p._frame.layout(p.b).x_rows(np.array([[-0.0, 2.0, 0.0, 0.0], [3.0, -0.0, 0.0, 1.0]]))
        assert x.tobytes() == np.array([[0.0, 2.0], [3.0, 0.0]]).tobytes()
        assert x.flags.c_contiguous


class TestDegeneracyAndRanges:
    def test_not_degenerate(self):
        p = lp("min", [1.0], [[1.0]], (">=",), [3.0])
        rep = detect_degeneracy(p, solve_lp(p))
        assert not rep.primal_degenerate
        assert rep.dual_multiple == (False,)

    def test_degenerate_basic_at_zero(self):
        # min x + y s.t. x + y >= 1, x >= 1: optimum (1, 0); one basic at 0
        p = lp("min", [1.0, 1.0], [[1, 1], [1, 0]], (">=", ">="), [1, 1])
        sol = solve_lp(p)
        assert_allclose(sol.objective, 1.0)
        rep = detect_degeneracy(p, sol)
        assert rep.primal_degenerate

    def test_requires_optimal_solution(self):
        p = lp("min", [0.0], [[1.0], [1.0]], (">=", "<="), [1.0, 0.0])
        with pytest.raises(Exception):
            detect_degeneracy(p, solve_lp(p))

    def test_optimum_given_is_not_solved_again(self, tableaux):
        p = lp("min", [1.0], [[1.0], [1.0]], (">=", ">="), [1.0, 1.0])
        sol = solve_lp(p)
        del tableaux[:]
        rep = detect_degeneracy(p, sol)
        assert rep.dual_multiple == (True, True)
        assert not tableaux             # the ranges are read off its basis

    def test_solution_is_required(self):
        # the ranges are read off the optimum's basis; no variant solves it again
        p = lp("min", [1.0], [[1.0]], (">=",), [3.0])
        for call in (lambda: dual_value_range(p, 0),
                     lambda: lp_module.dual_value_ranges(p, (0,)),
                     lambda: lp_module.dual_ranges_step(p, (0,))):
            with pytest.raises(TypeError, match="solution"):
                call()

    def test_trivial_range_is_point(self):
        p = lp("min", [1.0], [[1.0]], (">=",), [3.0])
        lo, hi = dual_value_range(p, 0, solution=solve_lp(p))
        assert_allclose([lo, hi], [1.0, 1.0], atol=1e-9)

    def test_degenerate_range_has_width(self):
        # min x subject to x >= 1 twice: duals split the unit mass any way.
        p = lp("min", [1.0], [[1.0], [1.0]], (">=", ">="), [1.0, 1.0])
        sol = solve_lp(p)
        lo, hi = dual_value_range(p, 0, solution=sol)
        assert_allclose([lo, hi], [0.0, 1.0], atol=1e-9)
        assert lo - 1e-9 <= sol.duals[0] <= hi + 1e-9

    def test_solution_of_another_lp_rejected(self):
        # p's row 0 interval is [0, 1]; an optimum of the same rows at
        # another right-hand side is a point of p, and its basis is
        # primal feasible there, but prices p above its optimal value
        p = lp("min", [1.0], [[1.0], [1.0]], (">=", ">="), [1.0, 1.0])
        below = solve_lp(lp("min", [1.0], [[1.0], [1.0]], (">=", ">="), [0.5, 0.5]))
        with pytest.raises(LpInputError, match="not a point of problem"):
            dual_value_range(p, 0, solution=below)
        above = solve_lp(lp("min", [1.0], [[1.0], [1.0]], (">=", ">="), [1.0, 3.0]))
        with pytest.raises(lp_module.LpError, match="not optimal for problem"):
            dual_value_range(p, 0, solution=above)
        short = lp("min", [1.0, 0.0], [[1.0, 0.0], [1.0, 0.0]], (">=", ">="), [1.0, 1.0])
        with pytest.raises(LpInputError, match="shape"):
            dual_value_range(p, 0, solution=solve_lp(short))
        sol = solve_lp(p)
        off = lp_module.LpSolution(status="optimal", x=sol.x, objective=sol.objective + 0.5)
        with pytest.raises(LpInputError, match="is not c @ x"):
            dual_value_range(p, 0, solution=off)

    @pytest.mark.parametrize("lo, hi, width", [
        (-math.inf, 23.8, True), (23.8, math.inf, True), (-math.inf, math.inf, True),
        (-math.inf, -math.inf, False), (math.inf, math.inf, False),
        (1.0, 80.0, True), (80.0, 80.0 + 1e-6, False),
    ])
    def test_interval_width(self, lo, hi, width):
        assert lp_module.dual_interval_has_width(lo, hi) is width

    @pytest.mark.parametrize("sense", ["min", "max"])
    def test_redundant_rows_leave_their_duals_free(self, sense):
        # x + y = 1 twice over: an artificial stays basic at zero in the
        # second row, and any move of either row's b empties the feasible
        # set, so both duals are free over the optimal face
        p = lp(sense, [1.0, 2.0], [[1, 1], [2, 2], [1, 0]], ("=", "=", "<="), [1.0, 2.0, 0.5])
        sol = solve_lp(p)
        assert "a[row1]" in sol.basis
        got = lp_module.dual_value_ranges(p, range(3), solution=sol)
        assert got[:2] == ((-math.inf, math.inf),) * 2
        assert same_ends(got, region_ranges(p, range(3), sol))

    def test_end_the_basis_does_not_give_is_pivoted(self):
        # min x + 2y s.t. x + y >= 1, x <= 1: the optimum's basis holds y
        # at zero, so it stays optimal as row 0's b rises (y serves it at 2)
        # but not as it falls, where a dual-simplex pivot swaps y for row
        # 0's surplus and the slope is x's cost, 1
        p = lp("min", [1.0, 2.0], [[1, 1], [1, 0]], (">=", "<="), [1.0, 1.0])
        sol = solve_lp(p)
        assert sol.basis == ("x1", "x0")
        assert dual_value_range(p, 0, solution=sol) == (1.0, 2.0)
        assert dual_value_range(p, 1, solution=sol) == (-1.0, 0.0)
        # x is held at 1 by both rows: moving either past the other leaves
        # nothing feasible, where no column can enter, so those ends are
        # infinite
        q = lp("min", [1.0], [[1.0], [1.0]], (">=", "<="), [1.0, 1.0])
        assert lp_module.dual_value_ranges(q, (0, 1), solution=solve_lp(q)) == (
            (1.0, math.inf), (-math.inf, 0.0))

    def test_range_contains_reported_dual(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            m, n = 3, 3
            A = rng.uniform(-1, 2, size=(m, n))
            b = rng.uniform(0.5, 3, size=m)
            c = rng.uniform(0.1, 2, size=n)
            p = lp("min", c, A, (">=",) * m, b)
            sol = solve_lp(p)
            if not sol.optimal:
                continue
            for i in range(m):
                lo, hi = dual_value_range(p, i, solution=sol)
                assert lo - 1e-7 <= sol.duals[i] <= hi + 1e-7


class TestAgainstBruteForce:
    def test_random_inequality_lps(self):
        rng = np.random.default_rng(42)
        n_checked = 0
        for _ in range(60):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(1, 4))
            A = np.round(rng.uniform(-2, 3, size=(m + n, n)), 2)
            # box rows keep every instance bounded
            A[m:] = np.eye(n)
            rel = ("<=",) * m + ("<=",) * n
            b = np.round(rng.uniform(-1, 4, size=m + n), 2)
            b[m:] = rng.uniform(1, 5, size=n)
            c = np.round(rng.uniform(-3, 3, size=n), 2)
            p = lp("min", c, A, rel, b)
            sol = solve_lp(p)
            status, obj, _ = brute_force_solve(c, A, rel, b)
            assert sol.status == status
            if status == "optimal":
                assert_allclose(sol.objective, obj, rtol=1e-8, atol=1e-8)
                n_checked += 1
        assert n_checked > 20

    def test_solution_invariants(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            A = rng.uniform(0.1, 2, size=(m, n))
            b = rng.uniform(0.5, 4, size=m)
            c = rng.uniform(0.1, 3, size=n)
            p = lp("min", c, A, (">=",) * m, b)
            sol = solve_lp(p)
            assert sol.optimal
            # primal feasibility residuals
            assert np.all(A @ sol.x - b >= -1e-9)
            assert np.all(sol.x >= -1e-9)
            # strong duality
            assert abs(sol.objective - b @ sol.duals) <= 1e-8 * (1 + abs(sol.objective))
            # dual feasibility: sign convention and reduced costs
            assert np.all(sol.duals >= -1e-9)
            assert np.all(sol.reduced_costs >= -1e-7)
            assert np.all(np.abs(c - sol.duals @ A - sol.reduced_costs) <= 1e-9)

    def test_mixed_relations_and_free_vars(self):
        # equality rows force the two-phase path; a free variable exercises
        # the split-column bookkeeping; box rows keep everything bounded
        rng = np.random.default_rng(17)
        n_optimal = 0
        for _ in range(80):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 3))
            A_main = np.round(rng.uniform(-2, 2, size=(m, n)), 2)
            rel_main = tuple(rng.choice(["<=", "=", ">="], size=m))
            b_main = np.round(rng.uniform(-2, 3, size=m), 2)
            A = np.vstack([A_main, np.eye(n), -np.eye(n)])
            rel = rel_main + ("<=",) * n + ("<=",) * n
            b = np.concatenate([b_main, rng.uniform(1, 4, size=n),
                                rng.uniform(1, 4, size=n)])
            c = np.round(rng.uniform(-2, 2, size=n), 2)
            lb = np.where(rng.uniform(size=n) < 0.4, -np.inf, 0.0)
            p = lp("min", c, A, rel, b, lb=list(lb))
            sol = solve_lp(p)
            status, obj, _ = brute_force_solve(c, A, rel, b, lower_bounds=lb)
            assert sol.status == status
            if status == "optimal":
                n_optimal += 1
                assert_allclose(sol.objective, obj, rtol=1e-8, atol=1e-8)
                resid = A @ sol.x - b
                for i, r in enumerate(rel):
                    if r == "<=":
                        assert resid[i] <= 1e-8
                    elif r == ">=":
                        assert resid[i] >= -1e-8
                    else:
                        assert abs(resid[i]) <= 1e-8
        assert n_optimal > 25

    def test_variable_permutation_invariance(self):
        rng = np.random.default_rng(11)
        A = rng.uniform(0.1, 2, size=(4, 5))
        b = rng.uniform(1, 3, size=4)
        c = rng.uniform(0.5, 2, size=5)
        p = lp("min", c, A, (">=",) * 4, b)
        z = solve_lp(p).objective
        perm = rng.permutation(5)
        p2 = lp("min", c[perm], A[:, perm], (">=",) * 4, b)
        assert_allclose(solve_lp(p2).objective, z, rtol=1e-9)


class TestAntiCycling:
    def test_beale_cycling_instance_terminates(self):
        # Classic instance on which Dantzig's rule cycles; Bland's must not.
        c = [-0.75, 150.0, -0.02, 6.0]
        A = [
            [0.25, -60.0, -0.04, 9.0],
            [0.5, -90.0, -0.02, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
        b = [0.0, 0.0, 1.0]
        p = lp("min", c, A, ("<=",) * 3, b)
        sol = solve_lp(p)
        assert sol.optimal
        assert_allclose(sol.objective, -0.05, atol=1e-9)

    def test_iteration_cap_raises(self, monkeypatch):
        p = lp("min", [1.0, 1.0], [[1, 1]], (">=",), [1.0])
        monkeypatch.setattr(lp_module, "MAX_ITERATIONS", 0)
        with pytest.raises(IterationLimitError):
            solve_lp(p)


class TestExplicitDual:
    def test_dual_optimum_matches_primal(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            A = rng.uniform(0.2, 2, size=(m, n))
            b = rng.uniform(0.5, 3, size=m)
            c = rng.uniform(0.1, 2, size=n)
            p = lp("min", c, A, (">=",) * m, b)
            d, _ = explicit_dual(p)
            zp = solve_lp(p).objective
            zd = solve_lp(d).objective
            assert_allclose(zp, zd, rtol=1e-8)
