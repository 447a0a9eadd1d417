"""Dense LP solver with dual extraction and degeneracy diagnostics.

A deliberately small, transparent implementation: two-phase primal simplex
on a dense tableau with Bland's rule always on, so cycling is impossible
rather than merely unlikely.  Problem sizes in this package are at most a
dozen variables by ten rows; there is no sparsity machinery and no scaling.
Several objectives over one feasible region share a single phase 1
(:func:`solve_objectives`): each then runs its own phase 2 from a copy of
the phase-1 tableau and gets exactly what a separate solve would return.

A :class:`LinearProgram` is checked once, field by field in a fixed
order, on Python floats (no numpy warnings); the first malformed field
raises :class:`LpInputError`.  Every solve has one pivot cap and reads
its tolerances from ``tolerances.current()``.

Stacked solves
--------------
Callers that evaluate many scenarios at once write their LP work as
*steps*: generators that yield :class:`LpRequest` s.  :func:`run_step`
answers one step's requests one at a time; :func:`run_lockstep` runs many
steps side by side and answers each round of requests with one
:func:`solve_stacked` call.  That groups the requests by standard-form
layout (:func:`_layout_of`) and objective count, and runs the same
two-phase method on a ``(K, rows, cols)`` tableau per group, after Gurung
& Ray, "Simultaneous solving of batched linear programs on a GPU" (ICPE
2019), in numpy on the CPU.  Every choice stays per instance: Bland's
entering column, the ratio test and its tie-break, the tolerances, the
phase-1 split fallback, the infeasible and unbounded verdicts, the
drive-out of artificials and the pivot cap.  Pivots use the scalar path's
elementwise arithmetic, duals come from one batched LAPACK solve of the
same matrices, and reduced costs and objectives are computed per
instance, so every outcome equals :func:`solve_objectives` bit for bit,
``iterations`` included.  ``sweep`` stacks the three LPs of each grid
row this way (the long-run solve and ``srmc.resolved_step``'s two
short-run solves; a row computes no dual interval), ``selftest`` the
short-run stage (``srmc.srmc_step``) of its scenarios; the long-run
solve and the cross-check of a ``selftest`` scenario, and every LP of a
``run`` report, are solved one at a time.

Groups smaller than :data:`STACK_MIN` (8) are solved one by one, because
the kernel's fixed cost per pivot round then outweighs what it saves.  The
constant was measured on a 2-core x86-64 machine (Python 3.11, numpy 2.4,
one BLAS thread) on 64 ``random_params`` scenarios per LP kind, median of
7 repeats: the stacked time over the one-by-one time at K = 4 / 6 / 8 was
1.17 / 0.87 / 0.72 for long-run primals with their tie-break, 0.92 / 0.70
/ 0.61 for dual-range regions (four objectives) and 1.27 / 1.06 / 0.88 for
short-run primals (one objective); at K = 32 it was 0.31, 0.29 and 0.40.

Fixed costs per solve
---------------------
A standard form's column layout depends only on the relations, the
free-variable split and the row signs, so it is built once per such key
and kept in a bounded cache (:func:`_layout`, :data:`_LAYOUTS` entries),
its arrays read-only, together with its artificial unit columns; it is
also :func:`solve_stacked`'s group key.  Its column labels per pair of
label tuples are cached the same way (:func:`_column_labels`).  Each
solve then builds only its own ``[A | I_art]``, right-hand side and
shift, and takes the optimal basis matrix and its costs as one fancy
index of those.  The dual-range region (:func:`dual_ranges_step`) is
written straight from the problem and its optimal value
(:func:`_pinned_region`): the dual of its minimization form, pinned to
its optimum, with the arithmetic of an explicit dual LP (so the same
bytes) but without two intermediate LPs to validate.

Conventions
-----------
* ``sense`` is ``"min"`` or ``"max"``.
* Each row carries a relation from ``{"<=", "=", ">="}``.
* Variables have individual lower bounds: ``0.0`` (default), any finite
  value, or ``-inf`` for a free variable.  No upper bounds (use a row).
* Dual signs: for a minimization, ``>=`` rows carry nonnegative duals,
  ``<=`` rows nonpositive ones, equality rows are unrestricted.  For a
  maximization the signs flip.  Strong duality then reads
  ``objective == b @ duals`` either way (plus the objective offset).
* Reduced costs are reported as ``c_j - duals @ A[:, j]`` in the problem's
  own orientation: nonnegative at optimality for a minimization,
  nonpositive for a maximization.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .tolerances import current

LE, EQ, GE = "<=", "=", ">="
_RELATIONS = (LE, EQ, GE)

#: Hard iteration cap, read whenever a pivot is counted.  Problems in this
#: package converge in < 50 pivots; hitting the cap signals a solver bug.
MAX_ITERATIONS = 10_000

#: Smallest pivot-column entry the ratio test divides by.
_PIVOT_TOL = 1e-10


class LpError(Exception):
    """Base class for solver errors."""


class LpInputError(LpError, ValueError):
    """Malformed problem data (dimension mismatch, bad labels, ...)."""


class IterationLimitError(LpError):
    """The pivot cap was hit.  With Bland's rule on, this means a bug."""


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of ``a`` is finite (on Python floats: no warning)."""
    return all(map(math.isfinite, a.ravel().tolist()))


def _objective_vector(sense, c, n_vars) -> np.ndarray:
    """``c`` as a read-only float vector, after checking that ``(sense, c)``
    is an objective over ``n_vars`` columns."""
    if sense not in ("min", "max"):
        raise LpInputError(f"sense must be 'min' or 'max', got {sense!r}")
    c = np.array(c, dtype=float)
    if c.ndim != 1:
        raise LpInputError("c must be one-dimensional")
    if c.shape[0] != n_vars:
        raise LpInputError(f"objective has {c.shape[0]} entries for {n_vars} columns")
    if not _all_finite(c):
        raise LpInputError("c must be finite")
    c.setflags(write=False)
    return c


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """A dense LP instance.

    Immutable after construction; arrays are copied and marked read-only,
    so instances can be shared freely across threads.
    """

    sense: str
    c: np.ndarray
    A: np.ndarray
    relations: tuple
    b: np.ndarray
    lower_bounds: np.ndarray = None
    var_labels: tuple = None
    row_labels: tuple = None
    objective_offset: float = 0.0

    def __post_init__(self):
        # One ordered check: the first malformed field raises.
        A = np.atleast_2d(np.array(self.A, dtype=float))
        b = np.array(self.b, dtype=float)
        rel = tuple(self.relations)
        m, n = A.shape
        c = _objective_vector(self.sense, self.c, n)
        if b.ndim != 1:
            raise LpInputError("b must be one-dimensional")
        if b.shape[0] != m or len(rel) != m:
            raise LpInputError(
                f"matrix has {m} rows but |b| = {b.shape[0]}, |relations| = {len(rel)}"
            )
        for r in rel:
            if r not in _RELATIONS:
                raise LpInputError(f"unknown relation {r!r}")
        if self.lower_bounds is None:
            lb = np.zeros(n)
        else:
            lb = np.array(self.lower_bounds, dtype=float)
            if lb.shape != (n,):
                raise LpInputError("lower_bounds length must match column count")
            if not all(v < math.inf for v in lb.tolist()):     # NaN fails too
                raise LpInputError("lower bounds must be finite or -inf")
        if not (_all_finite(A) and _all_finite(b)):
            raise LpInputError("A, b must be finite")
        vl = None if self.var_labels is None else tuple(self.var_labels)
        rl = None if self.row_labels is None else tuple(self.row_labels)
        if vl is not None and (len(vl) != n or len(set(vl)) != n):
            raise LpInputError("variable labels must be unique and match column count")
        if rl is not None and (len(rl) != m or len(set(rl)) != m):
            raise LpInputError("row labels must be unique and match row count")
        for name, val in (("c", c), ("A", A), ("b", b), ("lower_bounds", lb)):
            val.setflags(write=False)
            object.__setattr__(self, name, val)
        object.__setattr__(self, "relations", rel)
        object.__setattr__(self, "var_labels", vl)
        object.__setattr__(self, "row_labels", rl)

    @property
    def n_rows(self):
        return self.A.shape[0]

    @property
    def n_vars(self):
        return self.A.shape[1]

    def row_index(self, row_id) -> int:
        if isinstance(row_id, str):
            if self.row_labels is None:
                raise LpInputError("problem has no row labels")
            try:
                return self.row_labels.index(row_id)
            except ValueError:
                raise LpInputError(f"unknown row label {row_id!r}") from None
        i = int(row_id)
        if not 0 <= i < self.n_rows:
            raise LpInputError(f"row index {i} out of range")
        return i

    def var_label(self, j) -> str:
        return _label(self.var_labels, j, "x")

    def row_label(self, i) -> str:
        return _label(self.row_labels, i, "row")


def _label(labels, k, stem: str) -> str:
    """``labels[k]``, or ``stem`` and ``k`` when there are no labels."""
    return labels[k] if labels else f"{stem}{k}"


@dataclass(frozen=True, eq=False)
class LpSolution:
    """Primal and dual optimum (or an infeasible/unbounded verdict)."""

    status: str                 # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray = None
    duals: np.ndarray = None
    reduced_costs: np.ndarray = None
    objective: float = None
    basis: tuple = ()
    iterations: int = 0

    @property
    def optimal(self):
        return self.status == "optimal"


@dataclass(frozen=True, eq=False)
class DegeneracyReport:
    """Which basic variables sit at zero, and which rows have non-unique duals."""

    primal_degenerate: bool
    zero_basic: tuple          # (label, value) pairs for basic variables at ~0
    dual_multiple: tuple       # per-row bool: dual value not unique over the optimal set


# ---------------------------------------------------------------------------
# standard-form conversion
# ---------------------------------------------------------------------------


class _Layout:
    """Column layout of a standard form: which columns split a free
    variable, which rows get a slack, which start on an artificial.

    It depends only on the relations, the free-variable split and the row
    signs, so every problem that shares those shares one layout.  Layouts
    are built once (:func:`_layout`) and shared, so their arrays are
    read-only.
    """

    def __init__(self, relations, free, row_sign):
        cols = []          # (original var index, sign)
        for j, is_free in enumerate(free):
            cols.append((j, +1.0))
            if is_free:
                cols.append((j, -1.0))
        self.cols = tuple(cols)
        self.col_var = np.array([j for j, _ in cols], dtype=int)
        self.col_sign = np.array([s for _, s in cols])
        self.row_sign = row_sign

        slack_cols = []
        for i, rel in enumerate(relations):
            if rel == EQ:
                continue
            s = 1.0 if rel == LE else -1.0
            s *= row_sign[i]
            slack_cols.append((i, s))
        m = len(relations)
        self.A_slack = np.zeros((m, len(slack_cols)))
        for k, (i, s) in enumerate(slack_cols):
            self.A_slack[i, k] = s
        self.slack_cols = tuple(slack_cols)
        self.n_struct = len(cols)
        self.n_total = self.n_struct + len(slack_cols)

        # Initial basis: a +1 slack where available, else an artificial.
        self.init_basis = np.full(m, -1, dtype=int)
        for k, (i, s) in enumerate(slack_cols):
            if s > 0:
                self.init_basis[i] = self.n_struct + k
        self.art_rows = tuple(i for i in range(m) if self.init_basis[i] < 0)
        # the artificial columns: the unit column of each artificial row
        self.A_art = np.zeros((m, len(self.art_rows)))
        self.A_art[self.art_rows, range(len(self.art_rows))] = 1.0
        for a in (self.col_var, self.col_sign, self.row_sign, self.A_slack,
                  self.init_basis, self.A_art):
            a.setflags(write=False)

    def cost(self, sense, c) -> np.ndarray:
        """Standard-form (minimization) cost row of the objective ``(sense,
        c)``, artificial columns (cost 0) included."""
        c_min = c if sense == "min" else -c
        return np.concatenate([self.col_sign * c_min[self.col_var],
                               np.zeros(self.n_total - self.n_struct + len(self.art_rows))])

    def labels(self, p) -> tuple:
        """The label of every column (structural, slack, then artificial)
        in ``p``'s names."""
        return _column_labels(self.layout, p.var_labels, p.row_labels)

    def adopt(self, layout):
        """Take on the shared ``layout``: its attributes, not a copy of them."""
        self.layout = layout
        vars(self).update(vars(layout))


#: Layouts, and column labels per layout and pair of label tuples, kept for
#: reuse.  ``selftest``, ``sweep`` and ``run`` use 9 of each between them.
_LAYOUTS = 32


@functools.lru_cache(maxsize=_LAYOUTS)
def _layout(relations, free: bytes, negative: bytes) -> _Layout:
    """The layout of ``relations`` with the free-variable mask ``free`` and
    the negative right-hand-side mask ``negative`` (bool arrays as bytes)."""
    return _Layout(relations, np.frombuffer(free, dtype=bool),
                   np.where(np.frombuffer(negative, dtype=bool), -1.0, 1.0))


def _layout_of(p: LinearProgram, b_work) -> _Layout:
    """The layout of ``p``'s standard form, given ``_shifted_rhs(p)[1]``."""
    return _layout(p.relations, np.isinf(p.lower_bounds).tobytes(), (b_work < 0).tobytes())


@functools.lru_cache(maxsize=_LAYOUTS)
def _column_labels(layout: _Layout, var_labels, row_labels) -> tuple:
    """:meth:`_Layout.labels` of a problem with these label tuples."""
    names = [_label(var_labels, j, "x") + ("" if s > 0 else "~") for j, s in layout.cols]
    names += [f"s[{_label(row_labels, i, 'row')}]" for i, _ in layout.slack_cols]
    names += [f"a[{_label(row_labels, i, 'row')}]" for i in layout.art_rows]
    return tuple(names)


def _shifted_rhs(p: LinearProgram):
    """``(shift, b_work)``: finite lower bounds moved to zero."""
    lb = p.lower_bounds
    shift = np.where(np.isfinite(lb), lb, 0.0)
    return shift, p.b - p.A @ shift


class _StandardForm(_Layout):
    """min c.x  s.t.  A x = b, x >= 0, with bookkeeping back to the original.

    Only the feasible region is converted here; :meth:`cost` maps any
    objective over the original variables onto the same columns.
    """

    def __init__(self, p: LinearProgram):
        self.problem = p

        # Shift finite lower bounds to zero; split free variables in two.
        # Make the right-hand side nonnegative before adding slacks, so the
        # sign of each slack tells us whether it can start in the basis.
        self.shift, b_work = _shifted_rhs(p)
        self.adopt(_layout_of(p, b_work))
        A_struct = p.A[:, self.col_var] * self.col_sign * self.row_sign[:, None]
        # the standard-form columns, then the artificial ones
        self.A = np.hstack([A_struct, self.A_slack, self.A_art])
        self.b = b_work * self.row_sign

    def x_original(self, x_std) -> np.ndarray:
        x = self.shift.copy()
        for k, (j, s) in enumerate(self.cols):
            x[j] += s * x_std[k]
        return x


def _iteration_limit() -> IterationLimitError:
    return IterationLimitError(f"simplex exceeded {MAX_ITERATIONS} pivots; this is a bug")


def _drive_out(T, basis, m, n_total):
    """Pivot leftover artificials out of a phase-1 optimum where possible;
    a row that cannot be pivoted is redundant and keeps its artificial
    basic at zero."""
    for i in range(m):
        if basis[i] >= n_total:
            for j in range(n_total):
                if abs(T[i, j]) > 1e-9:
                    _pivot(T, basis, i, j)
                    break


def _pivot(T, basis, pi, pj):
    T[pi] /= T[pi, pj]
    col = T[:, pj].copy()
    col[pi] = 0.0
    T -= col[:, None] * T[pi]
    basis[pi] = pj


class _Tableau:
    """Dense simplex tableau: ``m`` constraint rows, then reduced-cost rows.

    Row ``m`` is the phase-1 objective (minus the sum of the artificial
    rows); the rows below it are phase-2 objectives.  A pivot updates every
    row, so each reduced-cost row stays current whichever row chose it.
    """

    def __init__(self, T, basis, m, n_enter):
        self.T = T
        self.basis = basis
        self.m = m
        self.n_enter = n_enter          # artificial columns never enter
        self.iterations = 0

    def copy(self) -> "_Tableau":
        dup = _Tableau(self.T.copy(), self.basis.copy(), self.m, self.n_enter)
        dup.iterations = self.iterations
        return dup

    def run(self, row, rc_tol, rc_tol_hi=None) -> str:
        """Pivot on reduced-cost row ``row`` until no column prices out
        below ``-rc_tol``; returns "optimal" or "unbounded".

        With ``rc_tol_hi`` the run stands for every tolerance in
        ``[rc_tol, rc_tol_hi]``: it returns "split" rather than pivot on a
        column that only some of those tolerances would let enter.
        """
        # Scalar work runs on Python floats (the same IEEE doubles, without
        # numpy's per-element overhead on rows this short).
        T, m, basis = self.T, self.m, self.basis
        while True:
            enter = -1
            for j, r_j in enumerate(T[row, : self.n_enter].tolist()):
                if r_j < -rc_tol:                # Bland: lowest eligible index
                    enter, r_enter = j, r_j
                    break
            if enter < 0:
                return "optimal"
            if rc_tol_hi is not None and not r_enter < -rc_tol_hi:
                return "split"
            ratios = [b_i / a_i if a_i > _PIVOT_TOL else math.inf
                      for a_i, b_i in zip(T[:m, enter].tolist(), T[:m, -1].tolist())]
            theta = min(ratios)
            if theta == math.inf:
                return "unbounded"
            cutoff = theta + 1e-12 * (1.0 + abs(theta))
            leave = min((i for i in range(m) if ratios[i] <= cutoff),
                        key=basis.__getitem__)   # Bland again on ties
            self.iterations += 1
            if self.iterations > MAX_ITERATIONS:
                raise _iteration_limit()
            _pivot(T, basis, leave, enter)


def solve_lp(problem: LinearProgram) -> LpSolution:
    """Solve an LP to optimality, returning primal values, duals and reduced costs.

    The duals are the multipliers of the optimal basis actually returned,
    which matters on degenerate instances: a different optimal basis may
    carry different (equally valid) duals.  Use :func:`dual_value_range`
    for the full set.
    """
    return solve_objectives(problem, ((problem.sense, problem.c),))[0]


def solve_objectives(problem: LinearProgram, objectives) -> tuple:
    """Optimize each ``(sense, c)`` pair in ``objectives`` over ``problem``'s
    feasible region; one :class:`LpSolution` per pair, in order.

    The problem's own ``sense`` and ``c`` are not used; its rows, bounds,
    labels and ``objective_offset`` are.  The standard form is built once
    and phase 1 runs once, carrying every objective's reduced-cost row
    through its pivots; each phase 2 then starts from its own copy of the
    phase-1 tableau.  Each result, ``iterations`` included (shared phase-1
    plus own phase-2 pivots), is exactly what :func:`solve_lp` returns for
    the problem with that sense and objective.
    """
    tol = current().feas
    sf = _StandardForm(problem)
    m = problem.n_rows
    if m == 0:
        raise LpInputError("problem must have at least one row")
    objectives = tuple((sense, _objective_vector(sense, c, problem.n_vars))
                       for sense, c in objectives)
    if not objectives:
        raise LpInputError("no objectives given")
    costs = [sf.cost(sense, c) for sense, c in objectives]
    rc_tols = [tol * (1.0 + float(np.abs(cost).max(initial=0.0))) for cost in costs]

    n_art = len(sf.art_rows)
    T = np.zeros((m + 1 + len(costs), sf.n_total + n_art + 1))
    T[:m, :-1] = sf.A
    T[:m, -1] = sf.b
    basis = sf.init_basis.copy()
    for k, i in enumerate(sf.art_rows):
        basis[i] = sf.n_total + k
    for q, cost in enumerate(costs):
        T[m + 1 + q, :-1] = cost
    r1 = T[m]
    for i in sf.art_rows:
        r1 -= T[i]
    r1[sf.n_total:-1] = 0.0
    tab = _Tableau(T, basis, m, sf.n_total)

    # ---- phase 1, shared ---------------------------------------------
    if n_art:
        # Phase 1 prices columns with each objective's own tolerance; it is
        # shared only while every one of them picks the same column.
        lo, hi = min(rc_tols), max(rc_tols)
        status = tab.run(m, lo, hi if hi > lo else None)
        if status == "split":
            return tuple(solve_objectives(problem, (obj,))[0]
                         for obj in objectives)
        if status == "unbounded":     # cannot happen: phase-1 objective >= 0
            raise LpError("phase-1 unbounded; numerical corruption")
        phase1_obj = -T[m, -1]
        if phase1_obj > tol * (1.0 + float(np.abs(sf.b).max(initial=0.0))):
            return tuple(LpSolution(status="infeasible", iterations=tab.iterations)
                         for _ in objectives)
        _drive_out(T, basis, m, sf.n_total)

    # ---- phase 2, one per objective ------------------------------------
    solutions = []
    last = len(costs) - 1
    for q, ((sense, c), cost) in enumerate(zip(objectives, costs)):
        own = tab if q == last else tab.copy()
        if own.run(m + 1 + q, rc_tols[q]) == "unbounded":
            solutions.append(LpSolution(status="unbounded", iterations=own.iterations))
        else:
            solutions.append(_optimum(problem, sf, own, sense, c, cost))
    return tuple(solutions)


def _optimum(problem, sf, tab, sense, c, cost) -> LpSolution:
    """The optimal solution that ``tab``'s basis gives objective ``(sense, c)``."""
    m = problem.n_rows
    T, basis = tab.T, tab.basis
    x_std = np.zeros(sf.n_total)
    for i in range(m):
        if basis[i] < sf.n_total:
            x_std[basis[i]] = T[i, -1]
    x = sf.x_original(x_std)

    # Duals of the returned basis: solve B' y = c_B against the pristine
    # standard-form columns (an artificial's being the unit column of its
    # row), then undo row negation and sense flips.
    B = sf.A[:, basis]
    c_B = cost[basis]
    y_std = np.linalg.solve(B.T, c_B)
    y = y_std * sf.row_sign
    if sense != "min":
        y = -y

    rc = c - y @ problem.A
    objective = float(c @ x) + problem.objective_offset
    names = sf.labels(problem)
    return LpSolution(
        status="optimal",
        x=x,
        duals=y,
        reduced_costs=rc,
        objective=objective,
        basis=tuple(map(names.__getitem__, basis.tolist())),
        iterations=tab.iterations,
    )


# ---------------------------------------------------------------------------
# requests, steps and the stacked solver
# ---------------------------------------------------------------------------


class LpRequest(NamedTuple):
    """One :func:`solve_objectives` call, as data.

    A *step* is a generator that yields requests and is sent each one's
    tuple of :class:`LpSolution` back, or has the solver's error raised at
    its ``yield``; what it returns is its result.  One step runs alone
    under :func:`run_step`, or beside others under :func:`run_lockstep`.
    """

    problem: LinearProgram
    objectives: tuple

    @classmethod
    def own(cls, problem: LinearProgram) -> "LpRequest":
        """The request for ``problem``'s own objective (:func:`solve_lp`)."""
        return cls(problem, ((problem.sense, problem.c),))


def run_step(step):
    """Run ``step`` alone, answering each request with
    :func:`solve_objectives`, and return its result.  Solver errors
    propagate from here."""
    answer = None
    while True:
        try:
            request = step.send(answer)
        except StopIteration as done:
            return done.value
        answer = solve_objectives(request.problem, request.objectives)


def run_lockstep(steps) -> list:
    """Run ``steps`` side by side: each round answers the request of every
    unfinished step with one :func:`solve_stacked` call, and a request's
    solver error is raised inside its own step.

    Returns each step's result in order, or the exception it raised, so
    one step's error leaves the others running.
    """
    steps = list(steps)
    results = [None] * len(steps)
    answers = [(k, None) for k in range(len(steps))]
    while answers:
        waiting = []
        for k, answer in answers:
            try:
                if isinstance(answer, Exception):
                    request = steps[k].throw(answer)
                else:
                    request = steps[k].send(answer)
            except StopIteration as done:
                results[k] = done.value
            except Exception as exc:
                results[k] = exc
            else:
                waiting.append((k, request))
        if not waiting:
            break
        outcomes = solve_stacked([request for _, request in waiting])
        answers = [(k, out) for (k, _), out in zip(waiting, outcomes)]
    return results


#: Fewest requests of one layout that :func:`solve_stacked` stacks; smaller
#: groups go to :func:`solve_objectives` one by one.  The stacked kernel
#: pays a fixed numpy cost per pivot round, which the K instances share,
#: so it loses below some K; from 8 on it wins on every LP kind the sweep
#: solves (see the module docstring for the measurement).
STACK_MIN = 8

#: Errors the solver raises for one problem; a stacked solve returns them
#: as that request's outcome.
_SOLVER_ERRORS = (LpError, np.linalg.LinAlgError)

# verdicts of a stacked simplex run
_OPTIMAL, _UNBOUNDED, _SPLIT, _LIMIT = range(4)


def solve_stacked(requests) -> list:
    """Solve every :class:`LpRequest`; one outcome per request, in order.

    An outcome is exactly what ``solve_objectives(problem, objectives)``
    returns (every array bit for bit, ``iterations`` included),
    or the :class:`LpError` it would raise.  Requests whose standard forms
    share a layout (:func:`_layout_of`) and an objective count are solved
    together on one ``(K, rows, cols)`` tableau, each instance making its
    own choices; groups smaller than :data:`STACK_MIN` are solved one by
    one.
    """
    outcomes = [None] * len(requests)
    groups = {}
    for k, (problem, objectives) in enumerate(requests):
        if problem.n_rows == 0 or not objectives:
            outcomes[k] = _solve_apart(problem, objectives)
            continue
        try:
            objectives = tuple((sense, _objective_vector(sense, c, problem.n_vars))
                               for sense, c in objectives)
        except ValueError as exc:
            outcomes[k] = exc
            continue
        shift, b_work = _shifted_rhs(problem)
        key = (_layout_of(problem, b_work), len(objectives))
        groups.setdefault(key, []).append((k, problem, objectives, shift, b_work))
    for (layout, _), members in groups.items():
        if len(members) >= STACK_MIN:
            for (k, *_), out in zip(members, _solve_stack(members, layout)):
                outcomes[k] = out
        else:
            for k, problem, objectives, _, _ in members:
                outcomes[k] = _solve_apart(problem, objectives)
    return outcomes


def _solve_apart(problem, objectives):
    try:
        return solve_objectives(problem, objectives)
    except _SOLVER_ERRORS as exc:
        return exc


class _StackedForm(_Layout):
    """The standard forms of problems that share one layout, stacked:
    ``A[k]``, ``b[k]`` and ``shift[k]`` are those of ``problems[k]``'s
    :class:`_StandardForm`, whose layout is ``layout``."""

    def __init__(self, problems, shifts, b_works, layout):
        self.adopt(layout)
        self.problems = problems
        self.shift = np.array(shifts)
        A = np.array([q.A for q in problems])[:, :, self.col_var]
        A_struct = A * self.col_sign * self.row_sign[:, None]
        aux = np.hstack([self.A_slack, self.A_art])
        self.A = np.concatenate(
            [A_struct, np.broadcast_to(aux, (len(problems),) + aux.shape)], axis=2)
        self.b = np.array(b_works) * self.row_sign

    def tableau(self, costs):
        """Phase-1 tableaux and bases, as :func:`solve_objectives` builds
        one, with the cost rows ``costs[k]`` ``(Q, n_total)`` under
        instance ``k``'s phase-1 row."""
        (K, m), n_total = self.b.shape, self.n_total
        T = np.zeros((K, m + 1 + costs.shape[1], n_total + len(self.art_rows) + 1))
        T[:, :m, :-1] = self.A
        T[:, :m, -1] = self.b
        basis = np.tile(self.init_basis, (K, 1))
        for k, i in enumerate(self.art_rows):
            basis[:, i] = n_total + k
        T[:, m + 1:, :n_total] = costs
        for i in self.art_rows:
            T[:, m] -= T[:, i]
        T[:, m, n_total:-1] = 0.0
        return T, basis

    def x_original(self, shift, x_std) -> np.ndarray:
        """:meth:`_StandardForm.x_original` of each row of ``x_std``, with
        the same arithmetic, given each row's ``shift``."""
        split = self.col_sign < 0
        x_struct = x_std[:, : self.n_struct]
        x = shift + x_struct[:, ~split]
        x[:, self.col_var[split]] += -x_struct[:, split]
        return x

    def basis_matrices(self, entry_k, basis):
        """``B.T`` of each entry's basis (columns ``basis[e]`` of instance
        ``entry_k[e]``, an artificial's being the unit column of its row)."""
        return self.A[entry_k[:, None], :, basis]


def _solve_stack(members, layout) -> list:
    """:func:`solve_objectives` on every member of the group of ``layout``,
    as one stacked two-phase simplex; outcomes in member order."""
    _, problems, objectives, shifts, b_works = zip(*members)
    sf = _StackedForm(problems, shifts, b_works, layout)
    K, Q, m = len(problems), len(objectives[0]), problems[0].n_rows
    n_total, n_art = sf.n_total, len(sf.art_rows)
    flip = np.array([[sense != "min" for sense, _ in obj] for obj in objectives])
    C = np.array([[c for _, c in obj] for obj in objectives])
    cost = np.zeros((K, Q, n_total + n_art))      # artificial columns cost 0
    cost[:, :, : sf.n_struct] = sf.col_sign * np.where(flip[..., None], -C, C)[..., sf.col_var]
    tol = current().feas
    rc_tol = tol * (1.0 + np.abs(cost).max(axis=2))

    T, basis = sf.tableau(cost[:, :, :n_total])
    iters = np.zeros(K, dtype=int)

    # ---- phase 1, shared by each instance's objectives ------------------
    outcomes = [None] * K
    feasible = np.arange(K)
    if n_art:
        status = _run_stack(T, basis, iters, m, n_total, rc_tol.min(axis=1),
                            rc_tol.max(axis=1))
        phase1_obj = -T[:, m, -1]
        infeasible = phase1_obj > tol * (1.0 + np.abs(sf.b).max(axis=1))
        for k in range(K):
            if status[k] == _SPLIT:
                outcomes[k] = _solve_apart(problems[k], objectives[k])
            elif status[k] == _UNBOUNDED:     # cannot happen: phase-1 objective >= 0
                outcomes[k] = LpError("phase-1 unbounded; numerical corruption")
            elif status[k] == _LIMIT:
                outcomes[k] = _iteration_limit()
            elif infeasible[k]:
                outcomes[k] = tuple(LpSolution(status="infeasible", iterations=int(iters[k]))
                                    for _ in range(Q))
            elif (basis[k] >= n_total).any():
                _drive_out(T[k], basis[k], m, n_total)
        feasible = np.array([k for k in range(K) if outcomes[k] is None], dtype=int)
    if not feasible.size:
        return outcomes

    # ---- phase 2: one stack entry per (instance, objective) -------------
    # An entry keeps the constraint rows and its own reduced-cost row; the
    # rows and artificial columns it drops never feed the ones it keeps.
    F = len(feasible)
    rows = np.empty((Q, m + 1), dtype=int)
    rows[:, :m] = np.arange(m)
    rows[:, m] = m + 1 + np.arange(Q)
    cols = np.r_[0:n_total, T.shape[2] - 1]
    T2 = T[feasible[:, None, None, None], rows[:, :, None], cols].reshape(F * Q, m + 1, -1)
    del T       # phase 2 runs on T2 alone; free the phase-1 stack meanwhile
    basis2 = np.repeat(basis[feasible], Q, axis=0)
    iters2 = np.repeat(iters[feasible], Q)
    status2 = _run_stack(T2, basis2, iters2, m, n_total, rc_tol[feasible].ravel(), None)

    entry_k, entry_q = np.repeat(feasible, Q), np.tile(np.arange(Q), F)
    opt = np.flatnonzero(status2 == _OPTIMAL)
    try:
        optima = _stacked_optima(sf, objectives, cost, flip, T2[opt], basis2[opt],
                                 iters2[opt], entry_k[opt], entry_q[opt])
    except np.linalg.LinAlgError:       # a singular basis: find whose, one by one
        for k in feasible:
            outcomes[k] = _solve_apart(problems[k], objectives[k])
        return outcomes
    optima = dict(zip(opt.tolist(), optima))
    for n, k in enumerate(feasible):
        entries = range(n * Q, (n + 1) * Q)
        if any(status2[e] == _LIMIT for e in entries):
            outcomes[k] = _iteration_limit()
        else:
            outcomes[k] = tuple(
                optima[e] if e in optima
                else LpSolution(status="unbounded", iterations=int(iters2[e]))
                for e in entries)
    return outcomes


def _stacked_optima(sf, objectives, cost, flip, T, basis, iters, entry_k, entry_q):
    """:func:`_optimum` of every entry of a finished phase-2 stack: entry
    ``e`` is objective ``entry_q[e]`` of ``sf.problems[entry_k[e]]``."""
    n_total = sf.n_total
    rows, pos = np.nonzero(basis < n_total)
    x_std = np.zeros((len(basis), n_total))
    x_std[rows, basis[rows, pos]] = T[rows, pos, -1]
    X = sf.x_original(sf.shift[entry_k], x_std)

    # B' y = c_B per entry, in one batched LAPACK call.
    c_B = cost[entry_k[:, None], entry_q[:, None], basis]
    Y = np.linalg.solve(sf.basis_matrices(entry_k, basis), c_B[..., None])[..., 0]
    Y *= sf.row_sign
    Y = np.where(flip[entry_k, entry_q][:, None], -Y, Y)

    solutions = []
    for e, (k, q, b) in enumerate(zip(entry_k.tolist(), entry_q.tolist(), basis.tolist())):
        problem = sf.problems[k]
        c = objectives[k][q][1]
        names = sf.labels(problem)
        x, y = X[e], Y[e]
        solutions.append(LpSolution(
            status="optimal",
            x=x,
            duals=y,
            reduced_costs=c - y @ problem.A,
            objective=float(c @ x) + problem.objective_offset,
            basis=tuple(map(names.__getitem__, b)),
            iterations=int(iters[e]),
        ))
    return solutions


def _run_stack(T, basis, iters, m, n_enter, rc_tol, rc_tol_hi):
    """:meth:`_Tableau.run` on row ``m`` of every tableau of the stack ``T``
    ``(K, rows, cols)``, instance ``k`` with tolerance ``rc_tol[k]`` (and
    ``rc_tol_hi[k]``); ``T``, ``basis`` and ``iters`` are updated in place.

    Returns each instance's verdict: ``_OPTIMAL``, ``_UNBOUNDED``,
    ``_SPLIT``, or ``_LIMIT`` where :meth:`_Tableau.run` raises
    :class:`IterationLimitError`.  Finished instances leave the working
    stack, so each round pivots only the live ones.
    """
    status = np.full(len(T), -1)
    live = np.arange(len(T))
    t, bas, it = T, basis, iters
    lo = -rc_tol
    hi = None if rc_tol_hi is None else -rc_tol_hi
    while True:
        rows = np.arange(len(t))
        r = t[:, m, :n_enter]
        eligible = r < lo[:, None]
        enter = eligible.argmax(axis=1)           # Bland: lowest eligible index
        verdict = np.where(eligible[rows, enter], -1, _OPTIMAL)
        if hi is not None:
            verdict[(verdict < 0) & ~(r[rows, enter] < hi)] = _SPLIT
        a = t[rows, :m, enter]
        ratios = np.full(a.shape, np.inf)
        np.divide(t[:, :m, -1], a, out=ratios, where=a > _PIVOT_TOL)
        theta = ratios.min(axis=1)
        verdict[(verdict < 0) & (theta == np.inf)] = _UNBOUNDED
        going = verdict < 0
        it += going
        verdict[going & (it > MAX_ITERATIONS)] = _LIMIT

        done = verdict >= 0
        if done.any():
            finished = live[done]
            status[finished] = verdict[done]
            if t is not T:
                T[finished], basis[finished], iters[finished] = t[done], bas[done], it[done]
            going = ~done
            if not going.any():
                return status
            live, t, bas, it = live[going], t[going], bas[going], it[going]
            lo, enter, ratios, theta = lo[going], enter[going], ratios[going], theta[going]
            if hi is not None:
                hi = hi[going]
            rows = np.arange(len(t))
        cutoff = theta + 1e-12 * (1.0 + np.abs(theta))
        key = np.where(ratios <= cutoff[:, None], bas, np.iinfo(bas.dtype).max)
        leave = key.argmin(axis=1)                # Bland again on ties
        _pivot_stack(t, rows, leave, enter)
        bas[rows, leave] = enter


def _pivot_stack(T, rows, pi, pj):
    """:func:`_pivot` on every tableau of the stack ``T``, each at its own
    ``(pi[k], pj[k])``, with the same arithmetic; ``rows`` is
    ``arange(len(T))``."""
    T[rows, pi] /= T[rows, pi, pj][:, None]
    col = T[rows, :, pj]
    col[rows, pi] = 0.0
    T -= col[:, :, None] * T[rows, pi][:, None, :]


# ---------------------------------------------------------------------------
# dual value ranges
# ---------------------------------------------------------------------------


def _pinned_region(problem: LinearProgram, z_min: float):
    """``(region, signs)``: the feasible region of the dual of ``problem``'s
    minimization form (finite lower bounds shifted to 0), pinned to that
    LP's optimal value ``z_min``, built straight from ``problem``.  Variable
    ``i`` is ``signs[i]`` times row ``i``'s dual (negated for a ``<=`` row,
    so each is nonnegative or free); there is one row per primal column
    (``=`` for a free one, ``<=`` otherwise) and a last row that pins the
    dual objective."""
    shift, b_work = _shifted_rhs(problem)
    c_min = problem.c if problem.sense == "min" else -problem.c
    signs = np.array([-1.0 if rel == LE else 1.0 for rel in problem.relations])
    region = LinearProgram(
        sense="min",
        c=np.zeros(problem.n_rows),
        A=np.vstack([problem.A.T * signs[None, :], signs * b_work]),
        relations=tuple(EQ if math.isinf(lb) else LE
                        for lb in problem.lower_bounds.tolist()) + (EQ,),
        b=np.concatenate([c_min, [z_min - float(c_min @ shift)]]),
        lower_bounds=np.array([-np.inf if rel == EQ else 0.0 for rel in problem.relations]),
    )
    return region, signs


def _check_point(problem: LinearProgram, solution: LpSolution):
    """Raise :class:`LpInputError` unless ``solution`` is a point of
    ``problem``: ``x`` finite and of its shape, its rows and lower bounds
    held within ``current().feas`` times one plus the largest ``|b|`` or
    ``|x|``, and ``objective`` equal to ``c @ x + objective_offset`` within
    ``current().feas`` relative.  One ``A @ x``, no solve; whether the
    point is optimal shows in the pinned dual region."""
    x = solution.x
    if x is None or x.shape != (problem.n_vars,) or not _all_finite(x):
        raise LpInputError("solution x must be finite and match the problem's shape")
    feas = current().feas
    xs, b = x.tolist(), problem.b.tolist()
    excess = (problem.A @ x).tolist()
    worst = max([a - r if rel == LE else r - a if rel == GE else abs(a - r)
                 for a, r, rel in zip(excess, b, problem.relations)]
                + [lb - v for lb, v in zip(problem.lower_bounds.tolist(), xs)])
    scale = 1.0 + max(map(abs, b + xs), default=0.0)
    if worst > feas * scale:
        raise LpInputError(
            f"solution is not a point of problem: a row or bound is violated by {worst:g}")
    value = float(problem.c @ x) + problem.objective_offset
    if abs(value - solution.objective) > feas * (1.0 + abs(value)):
        raise LpInputError(
            f"solution objective {solution.objective!r} is not c @ x + offset = {value!r}")


def dual_value_range(problem: LinearProgram, row_id, *, solution: LpSolution):
    """Exact interval of values the row's dual takes over all optimal duals.

    Computed by re-optimizing over the dual feasible region pinned to the
    optimal dual objective, minimizing and then maximizing the chosen dual
    variable.  Degenerate primal optima show up here as intervals of
    positive width; a unique dual gives a zero-width interval.

    ``solution`` is ``problem``'s optimum (:func:`solve_lp`), whose value
    pins the region.  A ``solution`` that is not a point of ``problem``
    raises :class:`LpInputError`; one that is a point but not an optimum
    leaves the region empty and raises :class:`LpError`.
    :func:`dual_value_ranges` does several rows for the price of one.
    """
    return dual_value_ranges(problem, (row_id,), solution=solution)[0]


def dual_value_ranges(problem: LinearProgram, row_ids, *, solution: LpSolution) -> tuple:
    """:func:`dual_value_range` of each row in ``row_ids``, in order.

    Every row's min and max sub-LP lives on the same pinned dual region, so
    all of them share one standard form and one phase 1
    (:func:`solve_objectives`); each interval equals the one-row result
    exactly.
    """
    return run_step(dual_ranges_step(problem, row_ids, solution=solution))


def dual_ranges_step(problem: LinearProgram, row_ids, *, solution: LpSolution):
    """:func:`dual_value_ranges` as a step (see :class:`LpRequest`)."""
    idxs = [problem.row_index(row_id) for row_id in row_ids]
    m = problem.n_rows
    if not solution.optimal:
        raise LpError(f"dual_value_range needs an optimal primal, got {solution.status}")
    _check_point(problem, solution)
    z_min = solution.objective - problem.objective_offset
    if problem.sense == "max":
        z_min = -z_min
    region, signs = _pinned_region(problem, z_min)
    objectives = []
    for idx in idxs:
        obj = np.zeros(m)
        obj[idx] = signs[idx]
        objectives += [("min", obj), ("max", obj)]
    sols = yield LpRequest(region, tuple(objectives))

    ranges = []
    for k in range(len(idxs)):
        lo_hi = []
        for sense, s in zip(("min", "max"), sols[2 * k: 2 * k + 2]):
            if s.status == "unbounded":
                lo_hi.append(-math.inf if sense == "min" else math.inf)
            elif s.optimal:
                lo_hi.append(s.objective)
            else:
                raise LpError(
                    "solution is not optimal for problem: no dual solution "
                    f"attains its objective {solution.objective!r}"
                )
        lo, hi = lo_hi
        if problem.sense == "max":
            lo, hi = -hi, -lo
        ranges.append((float(lo), float(hi)))
    return tuple(ranges)


def dual_interval_has_width(lo: float, hi: float) -> bool:
    """Whether a dual value interval holds more than one value."""
    return hi - lo > 1e-7 * (1.0 + abs(lo) + abs(hi))


def detect_degeneracy(problem: LinearProgram, solution: LpSolution) -> DegeneracyReport:
    """Flag basic variables at zero and rows whose dual is not unique."""
    if not solution.optimal:
        raise LpError("detect_degeneracy requires an optimal solution")
    # checks that solution is an optimum of problem, its shape included
    dual_multiple = tuple(dual_interval_has_width(lo, hi) for lo, hi in
                          dual_value_ranges(problem, range(problem.n_rows),
                                            solution=solution))
    x, lb = solution.x, problem.lower_bounds
    deg = current().deg
    values = {}
    for j in range(problem.n_vars):
        lbl = problem.var_label(j)
        values[lbl] = x[j] - lb[j] if np.isfinite(lb[j]) else x[j]
        values[lbl + "~"] = -x[j]
    resid = problem.A @ x
    for i, rel in enumerate(problem.relations):
        if rel == LE:
            values[f"s[{problem.row_label(i)}]"] = problem.b[i] - resid[i]
        elif rel == GE:
            values[f"s[{problem.row_label(i)}]"] = resid[i] - problem.b[i]
        values[f"a[{problem.row_label(i)}]"] = 0.0
    zero_basic = tuple((lbl, float(values[lbl])) for lbl in solution.basis
                       if abs(values[lbl]) <= deg)
    return DegeneracyReport(
        primal_degenerate=bool(zero_basic),
        zero_basic=zero_basic,
        dual_multiple=dual_multiple,
    )
