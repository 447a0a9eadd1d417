"""Brute-force LP oracle: enumerate every basic solution, keep the feasible ones.

Completely independent of the production simplex: no pivoting, no phase
logic, just linear solves over all column subsets.  Exponential, so only
usable on the tiny instances the tests construct, which is the point.

:func:`min_form` and :func:`explicit_dual` write an LP's minimization
form and a minimization's dual out as ``LinearProgram``s.
:func:`pinned_region` writes the dual region pinned to an optimal value
straight from the LP, one LP per end of each row's interval, and
:func:`region_ranges` pivots them: the second method the ranging of
``genmargin.lp`` (from the solve's own basis) is checked against where
basis enumeration is too slow, on the long-run LP for one.
:func:`solved_pool` makes a ``BasisPool`` from solves.
"""

import itertools
import math

import numpy as np

from genmargin.lp import (
    BasisPool,
    LinearProgram,
    LpError,
    LpInputError,
    solve_lp,
)

LE, EQ, GE = "<=", "=", ">="


def _standardize(c, A, relations, b, lower_bounds):
    """To min c.x, Ax = b, x >= 0; returns (c, A, b, n_original, col_map)."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    c = np.asarray(c, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    lb = np.zeros(n) if lower_bounds is None else np.asarray(lower_bounds, dtype=float)

    shift = np.where(np.isfinite(lb), lb, 0.0)
    b = b - A @ shift

    cols = []
    for j in range(n):
        cols.append((j, 1.0))
        if math.isinf(lb[j]):
            cols.append((j, -1.0))
    A_cols = np.column_stack([s * A[:, j] for j, s in cols])
    c_cols = np.array([s * c[j] for j, s in cols])

    extra = []
    for i, rel in enumerate(relations):
        if rel == EQ:
            continue
        e = np.zeros(m)
        e[i] = 1.0 if rel == LE else -1.0
        extra.append(e)
    if extra:
        A_std = np.hstack([A_cols, np.column_stack(extra)])
        c_std = np.concatenate([c_cols, np.zeros(len(extra))])
    else:
        A_std, c_std = A_cols, c_cols
    return c_std, A_std, b, shift, cols


def brute_force_solve(c, A, relations, b, lower_bounds=None, sense="min",
                      feas_tol=1e-8):
    """Return (status, objective, x) by basis enumeration.

    status is "optimal" or "infeasible".  Unbounded problems are out of
    scope for this oracle; callers must construct bounded feasible sets.
    """
    flip = sense == "max"
    c_in = -np.asarray(c, dtype=float) if flip else np.asarray(c, dtype=float)
    c_std, A_std, b_std, shift, cols = _standardize(c_in, A, relations, b, lower_bounds)
    m, n_std = A_std.shape

    scale = 1.0 + float(np.abs(b_std).max(initial=0.0))
    best = None
    best_x = None
    for combo in itertools.combinations(range(n_std), m):
        B = A_std[:, combo]
        try:
            xb = np.linalg.solve(B, b_std)
        except np.linalg.LinAlgError:
            continue
        # near-singular bases "solve" without raising; check the residual
        if np.abs(B @ xb - b_std).max() > feas_tol * scale:
            continue
        if np.any(xb < -feas_tol):
            continue
        x_std = np.zeros(n_std)
        x_std[list(combo)] = xb
        val = float(c_std @ x_std)
        if best is None or val < best - 1e-12:
            best = val
            best_x = x_std
    if best is None:
        return "infeasible", None, None

    n_orig = len(shift)
    x = shift.copy()
    for k, (j, s) in enumerate(cols):
        x[j] += s * best_x[k]
    obj = best if not flip else -best
    obj += float(np.asarray(c, dtype=float) @ shift) * 0.0  # shift already inside x
    obj = float(np.asarray(c, dtype=float) @ x)
    return "optimal", obj, x[:n_orig]


def brute_force_dual_range(c, A, relations, b, row, lower_bounds=None,
                           grid=None):
    """Range of a row's dual over optimal duals, via vertex enumeration
    of the dual polytope intersected with the optimality hyperplane.

    Minimization problems only.  Returns (lo, hi).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    c = np.asarray(c, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    lb = np.zeros(n) if lower_bounds is None else np.asarray(lower_bounds, dtype=float)

    status, z, _ = brute_force_solve(c, A, relations, b, lower_bounds)
    assert status == "optimal"

    # Dual feasibility as an inequality system in y (m unknowns):
    #   A_j . y <= c_j (x_j >= 0)  or == c_j (x_j free)
    #   sign constraints per row relation, and b . y == z.
    rows_ineq = []   # (a, rhs) meaning a.y <= rhs
    rows_eq = [(b, z)]
    for j in range(n):
        if math.isinf(lb[j]):
            rows_eq.append((A[:, j], c[j]))
        else:
            rhs = c[j] + (0.0 if lb[j] == 0 else 0.0)
            rows_ineq.append((A[:, j], c[j]))
    for i, rel in enumerate(relations):
        e = np.zeros(m)
        e[i] = 1.0
        if rel == GE:
            rows_ineq.append((-e, 0.0))
        elif rel == LE:
            rows_ineq.append((e, 0.0))

    # Enumerate vertices: pick m active constraints from the combined system.
    all_rows = rows_eq + rows_ineq
    n_eq = len(rows_eq)
    lo, hi = math.inf, -math.inf
    idx = range(len(all_rows))
    for combo in itertools.combinations(idx, m):
        if not all(k in combo for k in range(n_eq)):
            if any(k < n_eq and k not in combo for k in range(n_eq)):
                continue
        M = np.array([all_rows[k][0] for k in combo])
        rhs = np.array([all_rows[k][1] for k in combo])
        if np.linalg.matrix_rank(M) < m:
            continue
        y = np.linalg.lstsq(M, rhs, rcond=None)[0]
        ok = True
        for a, r in rows_eq:
            if abs(a @ y - r) > 1e-6 * (1 + abs(r)):
                ok = False
                break
        if ok:
            for a, r in rows_ineq:
                if a @ y > r + 1e-6 * (1 + abs(r)):
                    ok = False
                    break
        if ok:
            lo = min(lo, y[row])
            hi = max(hi, y[row])
    return lo, hi


def min_form(problem: LinearProgram) -> LinearProgram:
    """Equivalent minimization with lower bounds in {0, -inf}: finite
    lower bounds shifted to zero, their cost moved into the offset."""
    lb = problem.lower_bounds
    shift = np.where(np.isfinite(lb), lb, 0.0)
    c = problem.c if problem.sense == "min" else -problem.c
    return LinearProgram(
        sense="min",
        c=c,
        A=problem.A,
        relations=problem.relations,
        b=problem.b - problem.A @ shift,
        lower_bounds=np.where(np.isfinite(lb), 0.0, -np.inf),
        var_labels=problem.var_labels,
        row_labels=problem.row_labels,
        objective_offset=float(c @ shift),
    )


def explicit_dual(problem: LinearProgram):
    """Build the dual of a minimization LP as an explicit LinearProgram.

    Returns ``(dual_lp, signs)`` where ``signs[i]`` maps the dual LP's
    variable ``i`` back to the primal row's dual: ``y_i = signs[i] *
    dual_x_i`` (``<=`` rows are represented by their negated, nonnegative
    counterpart so the solver only ever sees lb in {0, -inf}).
    """
    if problem.sense != "min":
        raise LpInputError("explicit_dual expects a minimization problem")
    m, n = problem.n_rows, problem.n_vars
    signs = np.array([
        -1.0 if rel == LE else 1.0 for rel in problem.relations
    ])
    lb = np.array([
        -np.inf if rel == EQ else 0.0 for rel in problem.relations
    ])
    A_d = problem.A.T * signs[None, :]
    rel_d = tuple(
        EQ if math.isinf(problem.lower_bounds[j]) else LE for j in range(n)
    )
    dual = LinearProgram(
        sense="max",
        c=signs * problem.b,
        A=A_d,
        relations=rel_d,
        b=problem.c.copy(),
        lower_bounds=lb,
        var_labels=tuple(f"y[{problem.row_label(i)}]" for i in range(m)),
        row_labels=tuple(problem.var_label(j) for j in range(n)),
    )
    return dual, signs


def pinned_region(problem: LinearProgram, rows, z_min: float) -> tuple:
    """The LPs whose optima are the ends of each row of ``rows``
    (indices): over the feasible region of the dual of ``problem``'s
    minimization form, pinned to that LP's optimal value ``z_min`` and
    built straight from the problem, the min and then the max of each
    row's dual, one LP each over one frame.  Variable ``i`` is
    ``signs[i]`` times row ``i``'s dual (negated for a ``<=`` row, so each
    is nonnegative or free); there is one row per primal column (``=`` for
    a free one, ``<=`` otherwise) and a last row that pins the dual
    objective."""
    c_min = problem.c if problem.sense == "min" else -problem.c
    signs = np.array([-1.0 if rel == LE else 1.0 for rel in problem.relations])
    region = LinearProgram(
        sense="min",
        c=np.zeros(problem.n_rows),
        A=np.vstack([problem.A.T * signs[None, :], signs * problem.b]),
        relations=tuple(EQ if math.isinf(lb) else LE
                        for lb in problem.lower_bounds.tolist()) + (EQ,),
        b=np.concatenate([c_min, [z_min]]),
        lower_bounds=np.array([-np.inf if rel == EQ else 0.0 for rel in problem.relations]),
    )
    ends = []
    for idx in rows:
        obj = np.zeros(problem.n_rows)
        obj[idx] = signs[idx]
        ends += [region._frame.program(sense, obj, region.b) for sense in ("min", "max")]
    return tuple(ends)


def region_ends(problem: LinearProgram, sols) -> tuple:
    """Each row's ``(lo, hi)`` from the solutions ``sols`` of a
    :func:`pinned_region` of ``problem``; raises :class:`LpError` where the
    region is empty, so its value is no optimal value."""
    ranges = []
    for k in range(0, len(sols), 2):
        lo_hi = []
        for sense, s in zip(("min", "max"), sols[k: k + 2]):
            if s.status == "unbounded":
                lo_hi.append(-math.inf if sense == "min" else math.inf)
            elif s.optimal:
                lo_hi.append(s.objective)
            else:
                raise LpError("solution is not optimal for problem: the pinned region is empty")
        lo, hi = lo_hi
        if problem.sense == "max":
            lo, hi = -hi, -lo
        ranges.append((float(lo), float(hi)))
    return tuple(ranges)


def request_ranges(request) -> tuple:
    """Each row's dual interval of a ``genmargin.lp.RangeRequest``, by
    pivoting its :func:`pinned_region`."""
    problem, rows, z_min, _ = request
    return region_ends(problem, [solve_lp(end) for end in pinned_region(problem, rows, z_min)])


def region_ranges(problem: LinearProgram, row_ids, solution) -> tuple:
    """Each row's dual interval by pivoting its :func:`pinned_region` at
    the value of the optimum ``solution``."""
    z_min = solution.objective - problem.objective_offset
    if problem.sense == "max":
        z_min = -z_min
    ends = pinned_region(problem, [problem.row_index(r) for r in row_ids], z_min)
    return region_ends(problem, [solve_lp(end) for end in ends])


def same_ends(got, want, rel=1e-9) -> bool:
    """Whether the intervals ``got`` and ``want`` agree end by end: an
    infinite end exactly, a finite one within ``rel`` relative."""
    for g, w in zip(np.ravel(got).tolist(), np.ravel(want).tolist()):
        if math.isinf(g) or math.isinf(w):
            if g != w:
                return False
        elif abs(g - w) > rel * max(1.0, abs(w)):
            return False
    return np.shape(got) == np.shape(want)


def solved_pool(solved) -> BasisPool:
    """The pool of ``(problem, solution)`` pairs, each ``solution`` what
    ``solve_lp`` returned for ``problem``: one block per layout,
    the optimal bases the solves reach, each column set once, in the order
    first reached.  A basis that holds an artificial column is never
    kept."""
    found = {}      # layout -> {column set: columns}
    for problem, solution in solved:
        layout = problem._frame.layout(problem.b)
        bases = found.setdefault(layout, {})
        if solution.optimal:
            cols = [layout.index[label] for label in solution.basis]
            if max(cols) < layout.n_total:          # no artificial column
                bases.setdefault(frozenset(cols), cols)
    return BasisPool({layout: (list(bases.values()),) for layout, bases in found.items() if bases})
