"""Dense LP solver with dual extraction and degeneracy diagnostics.

A deliberately small, transparent implementation: two-phase primal simplex
on a dense tableau with Bland's rule always on, so cycling is impossible
rather than merely unlikely.  Problem sizes in this package are at most a
dozen variables by ten rows; there is no sparsity machinery and no scaling.
Several objectives over one feasible region share a single phase 1
(:func:`solve_objectives`): each then runs its own phase 2 from a copy of
the phase-1 tableau and gets exactly what a separate solve would return.

A :class:`LinearProgram` is checked once, field by field in a fixed
order, on Python floats (no numpy warnings), the fields it shares with
LPs of its kind once per frame; the first malformed field raises
:class:`LpInputError`.  Every solve has one pivot cap and reads its
tolerances from ``tolerances.current()``.

Each optimality test is written once and shared by the scalar simplex,
the stacked kernel and the basis certificates.  A phase prices columns by
its own cost row: a column enters while its reduced cost is below
``-feas (1 + max|cost|)`` (:func:`_rc_tol`).  Phase 1 costs each
artificial 1 and reads no objective, so it prices at ``2 feas`` and a
feasibility verdict does not depend on the units of the costs.  A region
is feasible, and a basis primal feasible, within ``feas (1 + max|b|)``
(:func:`_primal_tol`).  Every optimum the simplex ends on, scalar or
stacked, is read by one function (:func:`_stacked_optima`), and duals,
reduced costs and the objective are read off a basis in one place
(:func:`_duals`, :func:`_optimum`).

Stacked solves
--------------
Callers that evaluate many scenarios at once write their LP work as
*steps*: generators that yield :class:`LpRequest` s (and
:class:`RangeRequest` s, the dual intervals of an optimum).  :func:`run_lockstep`
runs many steps side by side and answers each round of requests with one
:func:`solve_stacked` call; :func:`run_step` is one step run that way.
:func:`solve_stacked` groups the requests by standard-form layout
(:meth:`_Frame.layout`) and objective count, and runs the same two-phase
method on a ``(K, rows, cols)`` tableau per group (each with its own
frame's columns, so the dual-range regions of one layout stack), after
Gurung & Ray, "Simultaneous solving of batched linear programs on a GPU"
(ICPE 2019), in numpy on the CPU.  Every choice stays per instance:
Bland's entering column, the ratio test and its tie-break, the
tolerances, the infeasible and unbounded verdicts, the drive-out of
artificials and the pivot cap.  Pivots use the scalar path's elementwise
arithmetic, duals come from one batched LAPACK solve of the same
matrices, and reduced costs and objectives are computed per instance, so
every outcome equals :func:`solve_objectives` bit for bit,
``iterations`` included.  ``sweep`` stacks the three LPs of each grid
row this way (the long-run solve and ``srmc.resolved_step``'s two
short-run solves; a row computes no dual interval), ``selftest`` the
short-run stage (``srmc.srmc_step``) of its scenarios; the long-run
solve and the cross-check of a ``selftest`` scenario, and every LP of a
``run`` report, are solved one at a time.

``sweep`` and ``selftest`` also pass one :class:`BasisPool` to their LP
stages: a fixed atlas, the optimal bases of a grid row's three LPs
solved without a pool at each group's representative parameters, made
once per process and set of tolerances (``cli.basis_atlas``).  At fixed
costs only the right-hand side moves from row to row, and an optimal
basis stays optimal over a whole critical region (Gal & Nedoma,
"Multiparametric linear programming", Mgmt. Sci. 1972); explicit MPC
stores such bases offline in the same way (Borrelli, Bemporad & Morari,
JOTA 2003).  So before the simplex runs, each one-objective request is
tried against the atlas bases of its frame and layout: :func:`run_lockstep`
(and so :func:`run_step`) passes the pool to every round.  The dual half
of that certificate (every reduced cost at least ``-_rc_tol(cost)``) runs
once per distinct objective of a group, the primal half (``x_B = B⁻¹b``,
every entry at least ``-_primal_tol(b)``) once per request, and the first
atlas basis that passes both answers.  So a certified answer depends on
its request alone, not on the rows before it or beside it.  It builds no
tableau and reports ``iterations=0``; the rest are pivoted as above.  A
certified optimum is the simplex's own where that is unique.  Where it
is degenerate, the certified basis may be another optimal one than
Bland's rule reaches, with other duals; its ``x`` is ``B⁻¹b``, not
pivoted, and can differ in the last bits.  Measured on the benchmark's
240 grids for seeds 0-11 (rounds 0-3: 29,040 rows, so 29,040 LPs of each
kind), against :func:`solve_objectives`, a basis compared as a set of
columns and duals by value:

* perturbed short-run solves, whose duals the CSV prints: 26,159
  certified, every array and basis byte-equal;
* frozen short-run solves: 25,886 certified, 442 on another optimal
  basis, with other flow-balance duals, 400 of them on rows the CSV
  marks as region boundaries;
* long-run solves: 25,178 certified, 8,243 on another optimal basis,
  whose flow-balance duals differed on 4,654, all on boundary rows.

No ``x`` or objective differed on these integer-cost grids, and every
CSV was byte-equal.  Where the long-run optimum is not unique (zero
period-1 demand, or ``cl`` at a rung of the cost ladder), the certified
build may be another optimal one than the simplex's; the verbs freeze
the closed form's build, so their short-run prices do not depend on
which.  Calls without a pool keep the bit-for-bit contract above.

In ``selftest`` the atlas answers the long-run solve (through
:func:`run_step`) and the frozen and perturbed short-run solves: across
its draws, each with its own costs, the same few bases recur, and 95.0%
and 95.9% of them were certified over 3,000 draws of seed 11.  It also
answers the frozen solve's dual intervals from the one-sided slopes of
its bases (:class:`BasisPool`): 5,485 of the 6,000 range requests of
3,000 draws each of seeds 11 and 42, within 5.5e-12 relative of the
pinned region's intervals.  The rest, where a period is empty (its left
slope is ``-inf``) or no atlas basis gives one end, pivot the region
whole and get its answer bit for bit.  ``cross_check``'s explicit dual
stays pivoted on purpose: it is solved by :func:`solve_lp`, so strong
duality compares a certified primal with an independently pivoted dual,
and an unsound certificate shows as a gap.  A request of more than one
objective is always pivoted.

Groups smaller than :data:`STACK_MIN` (8) are solved one by one, because
the kernel's fixed cost per pivot round then outweighs what it saves.  The
constant was measured on a 2-core x86-64 machine (Python 3.11, numpy 2.4,
one BLAS thread).  Per LP kind, the requests of 64 ``random_params``
scenarios that share one layout were solved in groups of K, by the kernel
and one by one; the median of 7 repeats of the stacked over the
one-by-one time at K = 4 / 6 / 8 / 32 was

* 1.36 / 1.12 / 0.83 / 0.36 for long-run primals,
* 1.47 / 0.95 / 0.82 / 0.32 for frozen short-run primals,
* 1.35 / 1.11 / 0.88 / 0.38 for perturbed short-run primals (these three
  one objective each), and
* 0.81 / 0.65 / 0.54 / 0.29 for dual-range regions (four objectives).

A second draw of scenarios moved no ratio by more than 0.3, and none at
K = 8 by more than 0.1.  So one-objective groups break even between K = 6
and 8, and the four-objective regions win at every K measured.

Fixed costs per solve
---------------------
The model's LP kinds each have one frame (:class:`_Frame`), built and
checked at import: ``A``, relations, lower bounds and labels, and per
row-sign pattern the standard form's layout and columns.  A model LP
checks only its ``c`` and ``b``; a solve builds only its right-hand side
and tableau.  A standard form is no object of its own: a solve holds its
frame's columns, its ``b`` negated by the layout's row signs, and cost rows
(:meth:`_Layout.cost`), and :meth:`_Layout.tableau` lays them out, one
instance or a stack of them alike.  A layout depends only on the
relations, the free-variable split and the row signs, so frames share it
through a cache that never evicts (:func:`_layout`): one layout is one
object per process, and it is :func:`solve_stacked`'s group key.
``selftest``, ``sweep`` and ``run`` make 9 layouts between them; the cache
grows by one per new pattern of relations, free variables and row signs.
Column labels are cached the same way (:func:`_column_labels`).  A
dual-range request (:func:`dual_ranges_step`) carries the problem, its
rows and its optimal value and builds nothing.  Only where it is pivoted
is its region written, straight from the problem and that value
(:func:`_pinned_region`), with the arithmetic of an explicit dual LP (so
the same bytes); its last row is the problem's ``b``, so each region is a
full :class:`LinearProgram` with a frame of its own.  Every range request
without a pool is pivoted so: ``run``, :func:`dual_value_range` and
:func:`detect_degeneracy` keep the region LP as an independent route.

Conventions
-----------
* ``sense`` is ``"min"`` or ``"max"``.
* Each row carries a relation from ``{"<=", "=", ">="}``.
* Variables have individual lower bounds: ``0.0`` (default) or ``-inf``
  for a free variable; :class:`LinearProgram` rejects any other.  No upper
  bounds (use a row).
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
from dataclasses import dataclass, field
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


def _vector(v, name, size, wrong_size, not_finite) -> np.ndarray:
    """``v`` as a read-only float vector, after checking that it is
    one-dimensional, of ``size`` entries (else ``wrong_size``, formatted
    with its length) and finite (else ``not_finite``)."""
    v = np.array(v, dtype=float)
    if v.ndim != 1:
        raise LpInputError(f"{name} must be one-dimensional")
    if v.shape[0] != size:
        raise LpInputError(wrong_size.format(v.shape[0]))
    if not _all_finite(v):
        raise LpInputError(not_finite)
    v.setflags(write=False)
    return v


def _objective_vector(sense, c, n_vars) -> np.ndarray:
    """``c`` as a read-only float vector, after checking that ``(sense, c)``
    is an objective over ``n_vars`` columns."""
    if sense not in ("min", "max"):
        raise LpInputError(f"sense must be 'min' or 'max', got {sense!r}")
    return _vector(c, "c", n_vars, f"objective has {{}} entries for {n_vars} columns",
                   "c must be finite")


def _rhs_vector(b, n_rows, n_relations) -> np.ndarray:
    """``b`` as :func:`_vector` checks it, for ``n_rows`` rows."""
    return _vector(b, "b", n_rows, f"matrix has {n_rows} rows but |b| = {{}}, "
                   f"|relations| = {n_relations}", "A, b must be finite")


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """A dense LP instance: ``sense``, ``c``, ``b`` and the offset over a
    :class:`_Frame` that holds the rest, ``n_rows`` and ``n_vars`` too.

    Immutable after construction; arrays are copied and marked read-only,
    so instances can be shared freely across threads.  Built here, it
    checks its own fields, then those of the frame it gets to itself.
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
    _frame: "_Frame" = field(init=False, repr=False)

    def __post_init__(self):
        # One ordered check: the first malformed field raises.
        A = np.atleast_2d(np.array(self.A, dtype=float))
        rel = tuple(self.relations)
        m, n = A.shape
        c = _objective_vector(self.sense, self.c, n)
        b = _rhs_vector(self.b, m, len(rel))
        frame = _Frame(A, rel, self.lower_bounds, self.var_labels, self.row_labels)
        vars(self).update(frame.fields, _frame=frame, c=c, b=b)

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


class _Frame:
    """What LPs that differ only in ``c``, ``b`` and the offset share:
    ``A`` (a float array is taken as it is), the relations, the lower
    bounds (each 0 or ``-inf``) and the labels, all read-only and checked
    once, here.  Also what every solve derives from them alone: the
    free-variable mask, and per row-sign pattern seen (at most 16 for the
    model's LPs) a layout and its columns.
    """

    def __init__(self, A, relations, lower_bounds=None, var_labels=None, row_labels=None):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        rel = tuple(relations)
        m, n = A.shape
        if len(rel) != m:
            raise LpInputError(f"matrix has {m} rows but |relations| = {len(rel)}")
        for r in rel:
            if r not in _RELATIONS:
                raise LpInputError(f"unknown relation {r!r}")
        if lower_bounds is None:
            lb = np.zeros(n)
        else:
            lb = np.array(lower_bounds, dtype=float)
            if lb.shape != (n,):
                raise LpInputError("lower_bounds length must match column count")
            if not all(v < math.inf for v in lb.tolist()):     # NaN fails too
                raise LpInputError("lower bounds must be finite or -inf")
            if any(v != 0.0 and v > -math.inf for v in lb.tolist()):
                raise LpInputError("finite lower bounds must be 0")
        if not _all_finite(A):
            raise LpInputError("A, b must be finite")
        vl = None if var_labels is None else tuple(var_labels)
        rl = None if row_labels is None else tuple(row_labels)
        if vl is not None and (len(vl) != n or len(set(vl)) != n):
            raise LpInputError("variable labels must be unique and match column count")
        if rl is not None and (len(rl) != m or len(set(rl)) != m):
            raise LpInputError("row labels must be unique and match row count")
        self.A, self.relations, self.lower_bounds = A, rel, lb
        self.var_labels, self.row_labels = vl, rl
        self.fields = dict(A=A, relations=rel, lower_bounds=lb, var_labels=vl,
                           row_labels=rl, n_rows=m, n_vars=n)
        for a in (A, lb):
            a.setflags(write=False)
        self.free = np.isinf(lb).tobytes()
        self._layouts = {}          # negative-b mask (bytes) -> layout
        self.columns = {}           # layout -> its standard-form columns, artificial last

    def program(self, sense, c, b, objective_offset=0.0) -> LinearProgram:
        """The LP with objective ``(sense, c)``, right-hand side ``b`` and
        ``objective_offset`` over this frame; only ``c`` and ``b`` are
        checked, as :class:`LinearProgram` checks them."""
        m, n = self.A.shape
        c, b = _objective_vector(sense, c, n), _rhs_vector(b, m, m)
        p = object.__new__(LinearProgram)
        vars(p).update(self.fields, _frame=self, sense=sense, c=c, b=b,
                       objective_offset=objective_offset)
        return p

    def layout(self, b) -> "_Layout":
        """The layout of the standard form with right-hand side ``b``, its
        columns put in :attr:`columns` when first seen."""
        negative = (b < 0).tobytes()
        layout = self._layouts.get(negative)
        if layout is None:
            layout = self._layouts[negative] = _layout(self.relations, self.free, negative)
            A_struct = self.A[:, layout.col_var] * layout.col_sign * layout.row_sign[:, None]
            columns = np.hstack([A_struct, layout.A_slack, layout.A_art])
            columns.setflags(write=False)
            self.columns[layout] = columns
        return layout


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
    are built once per process (:func:`_layout`) and shared, so their
    arrays are read-only.
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
        self.init_basis[list(self.art_rows)] = self.n_total + np.arange(len(self.art_rows))
        # the artificial columns: the unit column of each artificial row
        self.A_art = np.zeros((m, len(self.art_rows)))
        self.A_art[self.art_rows, range(len(self.art_rows))] = 1.0
        for a in (self.col_var, self.col_sign, self.row_sign, self.A_slack,
                  self.init_basis, self.A_art):
            a.setflags(write=False)

    def cost(self, flip, C) -> np.ndarray:
        """Standard-form (minimization) cost rows of the objectives ``C``
        (last axis: the original variables), each negated where ``flip`` (a
        ``"max"``), artificial columns (cost 0) included.  ``flip`` has
        ``C``'s shape but the last axis, whatever that shape is."""
        cost = np.zeros((*C.shape[:-1], self.n_total + len(self.art_rows)))
        cost[..., : self.n_struct] = (
            self.col_sign * np.where(flip[..., None], -C, C)[..., self.col_var])
        return cost

    def x_rows(self, x_std) -> np.ndarray:
        """The original variables of each row of the standard-form ``x_std``,
        each row contiguous (so ``c @ x`` sums in one order) and each zero
        +0.0."""
        split = self.col_sign < 0
        x_struct = x_std[:, : self.n_struct]
        x = np.add(x_struct[:, ~split], 0.0, order="C")
        x[:, self.col_var[split]] += -x_struct[:, split]
        return x

    def tableau(self, A, b, costs):
        """Phase-1 tableau and start basis of the standard form with columns
        ``A`` (artificial last) and right-hand side ``b`` (rows negated by
        :attr:`row_sign`): rows ``[A | b]``, the phase-1 row, then the cost
        rows ``costs`` ``(Q, columns)``.  In a stack every array has a
        leading instance axis, ``costs`` too."""
        *K, m = b.shape
        n_total = self.n_total
        T = np.zeros((*K, m + 1 + costs.shape[-2], A.shape[-1] + 1))
        T[..., :m, :-1] = A
        T[..., :m, -1] = b
        T[..., m + 1:, :-1] = costs
        for i in self.art_rows:
            T[..., m, :] -= T[..., i, :]
        T[..., m, n_total:-1] = 0.0
        return T, np.tile(self.init_basis, (*K, 1))


@functools.cache
def _layout(relations, free: bytes, negative: bytes) -> _Layout:
    """The layout of ``relations`` with the free-variable mask ``free`` and
    the negative right-hand-side mask ``negative`` (bool arrays as bytes)."""
    return _Layout(relations, np.frombuffer(free, dtype=bool),
                   np.where(np.frombuffer(negative, dtype=bool), -1.0, 1.0))


@functools.cache
def _column_labels(layout: _Layout, var_labels, row_labels) -> tuple:
    """The label of every column of ``layout`` (structural, slack, then
    artificial) in the names of a problem with these label tuples."""
    names = [_label(var_labels, j, "x") + ("" if s > 0 else "~") for j, s in layout.cols]
    names += [f"s[{_label(row_labels, i, 'row')}]" for i, _ in layout.slack_cols]
    names += [f"a[{_label(row_labels, i, 'row')}]" for i in layout.art_rows]
    return tuple(names)


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


def _rc_tol(cost):
    """Reduced-cost tolerance of each cost row of ``cost`` (last axis): a
    column prices out, and may enter, below ``-feas (1 + max|cost|)``."""
    return current().feas * (1.0 + np.abs(cost).max(axis=-1, initial=0.0))


def _phase1_tol():
    """Phase 1's tolerance: :func:`_rc_tol` of its own cost row (1 on each
    artificial column, 0 elsewhere), so ``2 feas`` whatever the objectives."""
    return _rc_tol(np.ones(1))


def _primal_tol(b):
    """Primal-feasibility tolerance of each right-hand side of ``b`` (last
    axis): a phase-1 optimum or basic value is held down to
    ``-feas (1 + max|b|)``."""
    return current().feas * (1.0 + np.abs(b).max(axis=-1, initial=0.0))


def _duals(problem, sense, c, y_std, row_sign):
    """``(duals, reduced costs)`` of objective ``(sense, c)`` over
    ``problem``, in its own orientation, from the duals ``y_std`` of the
    standard form: undo the row negation ``row_sign`` and the sense flip,
    then ``c - y @ A``."""
    y = y_std * row_sign
    if sense != "min":
        y = -y
    return y, c - y @ problem.A


def _optimum(problem, c, x, duals, basis, iterations) -> LpSolution:
    """The optimal :class:`LpSolution` of objective ``c`` over ``problem``
    at ``x``, with ``duals`` from :func:`_duals`."""
    y, rc = duals
    return LpSolution(status="optimal", x=x, duals=y, reduced_costs=rc,
                      objective=float(c @ x) + problem.objective_offset,
                      basis=basis, iterations=iterations)


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

    def run(self, row, rc_tol) -> str:
        """Pivot on reduced-cost row ``row`` until no column prices out
        below ``-rc_tol``; returns "optimal" or "unbounded"."""
        # Scalar work runs on Python floats (the same IEEE doubles, without
        # numpy's per-element overhead on rows this short).
        T, m, basis = self.T, self.m, self.basis
        while True:
            enter = -1
            for j, r_j in enumerate(T[row, : self.n_enter].tolist()):
                if r_j < -rc_tol:                # Bland: lowest eligible index
                    enter = j
                    break
            if enter < 0:
                return "optimal"
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
    labels and ``objective_offset`` are.  The tableau is built once
    and phase 1 runs once, at its own tolerance (:func:`_phase1_tol`),
    carrying every objective's reduced-cost row through its pivots; each
    phase 2 then starts from its own copy of the phase-1 tableau.  Each
    result, ``iterations`` included (shared phase-1 plus own phase-2
    pivots), is exactly what :func:`solve_lp` returns for the problem with
    that sense and objective.
    """
    layout = problem._frame.layout(problem.b)
    A, b = problem._frame.columns[layout], problem.b * layout.row_sign
    m = problem.n_rows
    if m == 0:
        raise LpInputError("problem must have at least one row")
    objectives = tuple(_checked_objective(problem, sense, c) for sense, c in objectives)
    if not objectives:
        raise LpInputError("no objectives given")
    costs = layout.cost(np.array([sense != "min" for sense, _ in objectives]),
                        np.array([c for _, c in objectives]))
    rc_tols = _rc_tol(costs).tolist()

    T, basis = layout.tableau(A, b, costs)
    tab = _Tableau(T, basis, m, layout.n_total)

    # ---- phase 1, shared ---------------------------------------------
    if layout.art_rows:
        if tab.run(m, float(_phase1_tol())) == "unbounded":  # cannot happen: objective >= 0
            raise LpError("phase-1 unbounded; numerical corruption")
        if -T[m, -1] > _primal_tol(b):
            return tuple(LpSolution(status="infeasible", iterations=tab.iterations)
                         for _ in objectives)
        _drive_out(T, basis, m, layout.n_total)

    # ---- phase 2, one per objective, each from its own copy --------------
    ends = [tab.copy() for _ in objectives[1:]] + [tab]
    status = [own.run(m + 1 + q, tol) for q, (own, tol) in enumerate(zip(ends, rc_tols))]
    opt = np.array([q for q, s in enumerate(status) if s == "optimal"], dtype=int)
    optima = iter(_stacked_optima(
        layout, A[None], (problem,), (objectives,), costs[None],
        np.array([ends[q].T[:m, -1] for q in opt]).reshape(len(opt), m),
        np.array([ends[q].basis for q in opt], dtype=int).reshape(len(opt), m),
        [ends[q].iterations for q in opt], np.zeros_like(opt), opt))
    return tuple(next(optima) if s == "optimal"
                 else LpSolution(status="unbounded", iterations=own.iterations)
                 for s, own in zip(status, ends))


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


class RangeRequest(NamedTuple):
    """The dual intervals :func:`dual_ranges_step` asks for, as data: the
    value interval of the dual of each row of ``rows`` (indices) over the
    optimal duals of ``problem``, whose minimization form (offset removed)
    has the optimal value ``z_min``.  A step is sent one ``(lo, hi)`` per
    row back (:func:`solve_stacked`)."""

    problem: LinearProgram
    rows: tuple
    z_min: float


def run_step(step, pool: "BasisPool" = None):
    """Run ``step`` alone, as ``run_lockstep([step], pool)``, and return its
    result; an error it raises, a solver error it does not catch included,
    propagates from here."""
    (result,) = run_lockstep([step], pool)
    if isinstance(result, Exception):
        raise result
    return result


def run_lockstep(steps, pool: "BasisPool" = None) -> list:
    """Run ``steps`` side by side: each round answers the request of every
    unfinished step with one :func:`solve_stacked` call, given ``pool``,
    and a request's solver error is raised inside its own step.

    Returns each step's result in order, or the exception it raised, so
    one step's error leaves the others running.  Without a pool every
    answer is what :func:`solve_objectives` returns for the request (for a
    :class:`RangeRequest`, the intervals of its pivoted region), or the
    error it raises; with one, see :func:`solve_stacked`.
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
        outcomes = solve_stacked([request for _, request in waiting], pool=pool)
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
_OPTIMAL, _UNBOUNDED, _LIMIT = range(3)


def solve_stacked(requests, pool: "BasisPool" = None) -> list:
    """Answer every request, an :class:`LpRequest` or a :class:`RangeRequest`;
    one outcome per request, in order.

    Without a ``pool``, the outcome of an :class:`LpRequest` is exactly what
    ``solve_objectives(problem, objectives)`` returns (every array bit for
    bit, ``iterations`` included), or the :class:`LpError` it would raise.
    Requests whose standard forms share a layout (:meth:`_Frame.layout`) and
    an objective count are solved together on one ``(K, rows, cols)``
    tableau, each instance making its own choices; groups smaller than
    :data:`STACK_MIN` are solved one by one.  A :class:`RangeRequest` is
    pivoted as its pinned dual region (:func:`_pinned_region`), beside the
    other requests, and its outcome is one ``(lo, hi)`` per row, or the
    :class:`LpError` the region raises.

    With a :class:`BasisPool`, a one-objective request that the pool's
    bases prove optimal (:meth:`BasisPool.certify`) is answered from them,
    builds no tableau and reports ``iterations=0``, and a range request
    whose every end the pool's bases give (:meth:`BasisPool.certify_ranges`)
    is answered from their one-sided slopes; the others are solved as
    above.
    A certified answer depends on its request alone.  It is an optimum
    within the simplex's own tolerances, but where the optimum is
    degenerate it need not be the one Bland's rule reaches: its duals
    (and ``basis``) may be another optimal basis's, and ``x``, computed as
    ``B⁻¹b`` rather than by pivots, may differ in its last bits.  A
    certified interval equals the region's within rounding.
    """
    outcomes = [None] * len(requests)
    if pool is not None:
        pool.certify_ranges([(k, request) for k, request in enumerate(requests)
                             if isinstance(request, RangeRequest)], outcomes)
    regions = {}        # k -> its range request, pivoted as a region
    groups = {}
    for k, request in enumerate(requests):
        if outcomes[k] is not None:
            continue
        if isinstance(request, RangeRequest):
            regions[k] = request
            try:
                request = _pinned_region(request)
            except LpError as exc:
                outcomes[k] = exc
                continue
        problem, objectives = request
        if problem.n_rows == 0 or not objectives:
            outcomes[k] = _solve_apart(problem, objectives)
            continue
        try:
            objectives = tuple(_checked_objective(problem, sense, c)
                               for sense, c in objectives)
        except ValueError as exc:
            outcomes[k] = exc
            continue
        key = (problem._frame.layout(problem.b), len(objectives))
        groups.setdefault(key, []).append((k, problem, objectives))
    for (layout, count), members in groups.items():
        if pool is not None and count == 1:
            members = pool.certify(layout, members, outcomes)
        if len(members) >= STACK_MIN:
            for (k, *_), out in zip(members, _solve_stack(members, layout)):
                outcomes[k] = out
        else:
            for k, problem, objectives in members:
                outcomes[k] = _solve_apart(problem, objectives)
    for k, request in regions.items():
        if not isinstance(outcomes[k], Exception):
            try:
                outcomes[k] = _region_ends(request, outcomes[k])
            except LpError as exc:
                outcomes[k] = exc
    return outcomes


def _checked_objective(problem, sense, c):
    """``(sense, c)`` with ``c`` as :func:`_objective_vector` checks it;
    ``problem``'s own objective (:meth:`LpRequest.own`), checked when the
    problem was built and read-only since, is taken as it is."""
    if c is problem.c and sense is problem.sense:
        return sense, c
    return sense, _objective_vector(sense, c, problem.n_vars)


def _solve_apart(problem, objectives):
    try:
        return solve_objectives(problem, objectives)
    except _SOLVER_ERRORS as exc:
        return exc


def _solve_stack(members, layout) -> list:
    """:func:`solve_objectives` on every member of the group of ``layout``,
    as one stacked two-phase simplex; outcomes in member order."""
    _, problems, objectives = zip(*members)
    K, Q, m = len(problems), len(objectives[0]), problems[0].n_rows
    n_total, n_art = layout.n_total, len(layout.art_rows)
    # each problem's own columns: problems of one layout may have other frames
    A = np.array([q._frame.columns[layout] for q in problems])
    b = np.array([q.b for q in problems]) * layout.row_sign
    cost = layout.cost(np.array([[sense != "min" for sense, _ in obj] for obj in objectives]),
                       np.array([[c for _, c in obj] for obj in objectives]))
    rc_tol = _rc_tol(cost)

    T, basis = layout.tableau(A, b, cost)
    iters = np.zeros(K, dtype=int)

    # ---- phase 1, shared by each instance's objectives ------------------
    outcomes = [None] * K
    feasible = np.arange(K)
    if n_art:
        status = _run_stack(T, basis, iters, m, n_total, np.full(K, _phase1_tol()))
        infeasible = -T[:, m, -1] > _primal_tol(b)
        for k in range(K):
            if status[k] == _UNBOUNDED:     # cannot happen: phase-1 objective >= 0
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
    status2 = _run_stack(T2, basis2, iters2, m, n_total, rc_tol[feasible].ravel())

    entry_k, entry_q = np.repeat(feasible, Q), np.tile(np.arange(Q), F)
    opt = np.flatnonzero(status2 == _OPTIMAL)
    try:
        optima = _stacked_optima(layout, A, problems, objectives, cost, T2[opt, :m, -1],
                                 basis2[opt], iters2[opt], entry_k[opt], entry_q[opt])
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


def _stacked_optima(layout, A, problems, objectives, cost, rhs, basis, iters,
                    entry_k, entry_q):
    """The optimal :class:`LpSolution` of every entry of a finished phase 2:
    entry ``e`` is objective ``entry_q[e]`` of ``problems[entry_k[e]]``,
    whose standard form of ``layout`` has the columns ``A[entry_k[e]]`` and
    the cost rows ``cost[entry_k[e]]``; it ended on ``basis[e]`` with the
    basic values ``rhs[e]`` after ``iters[e]`` pivots."""
    n_total = layout.n_total
    rows, pos = np.nonzero(basis < n_total)
    x_std = np.zeros((len(basis), n_total))
    x_std[rows, basis[rows, pos]] = rhs[rows, pos]
    X = layout.x_rows(x_std)

    # B' y = c_B per entry, in one batched LAPACK call, against the pristine
    # standard-form columns (an artificial's being the unit column of its row).
    c_B = cost[entry_k[:, None], entry_q[:, None], basis]
    Y = np.linalg.solve(A[entry_k[:, None], :, basis], c_B[..., None])[..., 0]

    solutions = []
    for e, (k, q, b) in enumerate(zip(entry_k.tolist(), entry_q.tolist(), basis.tolist())):
        problem = problems[k]
        sense, c = objectives[k][q]
        names = _column_labels(layout, problem.var_labels, problem.row_labels)
        solutions.append(_optimum(problem, c, X[e],
                                  _duals(problem, sense, c, Y[e], layout.row_sign),
                                  tuple(map(names.__getitem__, b)), int(iters[e])))
    return solutions


def _run_stack(T, basis, iters, m, n_enter, rc_tol):
    """:meth:`_Tableau.run` on row ``m`` of every tableau of the stack ``T``
    ``(K, rows, cols)``, instance ``k`` with tolerance ``rc_tol[k]``;
    ``T``, ``basis`` and ``iters`` are updated in place.

    Returns each instance's verdict: ``_OPTIMAL``, ``_UNBOUNDED``, or
    ``_LIMIT`` where :meth:`_Tableau.run` raises
    :class:`IterationLimitError`.  Finished instances leave the working
    stack, so each round pivots only the live ones.
    """
    status = np.full(len(T), -1)
    live = np.arange(len(T))
    t, bas, it = T, basis, iters
    lo = -rc_tol
    while True:
        rows = np.arange(len(t))
        eligible = t[:, m, :n_enter] < lo[:, None]
        enter = eligible.argmax(axis=1)           # Bland: lowest eligible index
        verdict = np.where(eligible[rows, enter], -1, _OPTIMAL)
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
# basis certificates
# ---------------------------------------------------------------------------


class BasisPool:
    """Optimal bases of given solves, tried as optimality certificates
    before the simplex runs.

    A pool is made once, from ``(request, solutions)`` pairs: an
    :class:`LpRequest` and what :func:`solve_objectives` returned for it.
    It never changes after, so a certified answer depends on its own
    request alone.  Bases are kept per frame (the object, so LPs built
    directly share bases only with themselves) and layout
    (:meth:`_Frame.layout`), each column set once, in the order the solves
    first reach it, with ``B⁻¹``.  A basis that holds an artificial column
    is never kept.

    Requests of one objective are tried (:func:`solve_stacked`).  Each
    is answered by the first basis of its frame and layout that passes both
    halves of the simplex's own optimality test, at its own tolerances.
    The primal half: ``x_B = B⁻¹b`` is at least ``-_primal_tol(b)`` in
    standard form, one batched product over the bases per request.  The
    dual half: the duals ``np.linalg.solve(B.T, c_B)``, the call
    :func:`_stacked_optima` makes, leave every reduced cost of the
    standard form at least ``-_rc_tol(cost)``.  It runs once per distinct
    objective of a :func:`solve_stacked` group in one batched LAPACK call,
    only for bases that pass the primal half for one of the objective's
    requests: a cost sweep has an objective per row, and solving all bases
    for each is slower than pivoting.

    A :class:`RangeRequest` is tried too (:meth:`certify_ranges`).  Where
    ``b`` is interior to the right-hand sides that keep its LP feasible,
    the values a row's dual takes over the optimal duals form the interval
    between the one-sided slopes ``∂⁻z/∂b_t`` and ``∂⁺z/∂b_t`` of the
    optimal value (Jansen, de Jong, Roos & Terlaky, "Sensitivity analysis
    in linear programming: just be careful!", EJOR 1997; Adler &
    Monteiro, "A geometric view of parametric linear programming",
    Algorithmica 1992).  The right slope is ``y_t`` of a basis that stays
    optimal as ``b_t`` rises a little: one that passes both halves and
    under which every row of ``(B⁻¹b, row_sign_t B⁻¹e_t)`` is
    lexicographically nonnegative, a row of ``x_B`` within
    ``_primal_tol(b)`` of zero counting as zero.  The left slope is the
    same with ``-row_sign_t``.  Each end is read off the first basis that
    gives it, and the bases must price the LP at the optimal value the
    request names (within ``feas (1 + |z_min|)``, as :func:`_check_point`
    checks an objective).  A request with an end that no basis gives,
    at zero demand for one (``b`` on the edge, the left slope ``-inf``),
    is left to the simplex whole."""

    def __init__(self, solved):
        found = {}      # (frame, layout) -> {column set: (columns, labels)}
        for (problem, _), solutions in solved:
            layout = problem._frame.layout(problem.b)
            names = _column_labels(layout, problem.var_labels, problem.row_labels)
            column = {name: j for j, name in enumerate(names)}
            bases = found.setdefault((problem._frame, layout), {})
            for solution in solutions:
                if not solution.optimal:
                    continue
                cols = [column[label] for label in solution.basis]
                if max(cols) < layout.n_total:          # no artificial column
                    bases.setdefault(frozenset(cols), (cols, solution.basis))
        self._bases = {key: _Bases(*key, bases.values())
                       for key, bases in found.items() if bases}

    def certify(self, layout, members, outcomes) -> list:
        """Answer in ``outcomes`` every member of a one-objective
        :func:`solve_stacked` group of ``layout`` that the pool proves
        optimal; returns the others, in order."""
        by_bases = {}
        for member in members:
            bases = self._bases.get((member[1]._frame, layout))
            if bases is not None:
                by_bases.setdefault(bases, []).append(member)
        for bases, group in by_bases.items():
            bases.answer(group, outcomes)
        return [member for member in members if outcomes[member[0]] is None]

    def certify_ranges(self, members, outcomes):
        """Answer in ``outcomes`` every ``(k, RangeRequest)`` member whose
        every interval end the pool's bases give."""
        by_bases = {}
        for member in members:
            problem = member[1].problem
            bases = self._bases.get((problem._frame, problem._frame.layout(problem.b)))
            if bases is not None:
                by_bases.setdefault(bases, []).append(member)
        for bases, group in by_bases.items():
            bases.slopes(group, outcomes)


class _Bases:
    """A :class:`BasisPool`'s bases of one frame and layout."""

    def __init__(self, frame, layout, bases):
        cols, self.labels = zip(*bases)
        self.layout = layout
        self.A = frame.columns[layout][:, : layout.n_total]
        self.cols = np.array(cols)
        B = self.A[:, self.cols].transpose(1, 0, 2)         # B[n] = A[:, cols[n]]
        self.BT = B.transpose(0, 2, 1)
        self.inverses = np.linalg.inv(B)
        # falls[n, i, t, 0 / 1]: x_B[i] of basis n falls as b_t rises / falls
        step = self.inverses * layout.row_sign
        self.falls = np.stack([step < 0, step > 0], axis=-1)

    def _optimal(self, b, objectives):
        """Both halves of the optimality test, for every basis and request:
        ``(X, both, objective, Y, pair)``.  Request ``r`` has the
        standard-form right-hand side ``b[r]`` and the objective
        ``objectives[r]``, the ``objective[r]``-th distinct one; ``X[r, n]``
        is ``x_B`` of basis ``n`` at ``b[r]``, ``both[r, n]`` whether that
        basis passes both halves, and ``Y[pair[d, n]]`` the standard-form
        duals of basis ``n`` under distinct objective ``d`` (``-1`` where
        not computed)."""
        layout = self.layout
        # the primal half: x_B of every basis, one batched product per request
        X = (self.inverses.reshape(-1, b.shape[1]) @ b[:, :, None]).reshape(
            len(b), *self.cols.shape)
        held = (X >= -_primal_tol(b)[:, None, None]).all(axis=2)
        distinct = {}       # (sense, objective bytes) -> (its index, the objective)
        objective = np.array([
            distinct.setdefault((sense, c.tobytes()), (len(distinct), (sense, c)))[0]
            for sense, c in objectives])
        flip, C = zip(*((sense != "min", c) for _, (sense, c) in distinct.values()))
        cost = layout.cost(np.array(flip), np.array(C))[:, : layout.n_total]
        # the dual half, per objective for the bases that hold for one of its requests
        live = (objective == np.arange(len(cost))[:, None]) @ held
        d, n = np.nonzero(live)
        Y = np.linalg.solve(self.BT[n], cost[d[:, None], self.cols[n]][..., None])[..., 0]
        dual = np.zeros_like(live)
        dual[d, n] = (cost[d] - (Y[:, None] @ self.A)[:, 0] >= -_rc_tol(cost)[d, None]).all(axis=1)
        pair = np.full(live.shape, -1)
        pair[d, n] = np.arange(len(d))
        return X, held & dual[objective], objective, Y, pair

    def answer(self, group, outcomes):
        """Answer in ``outcomes`` each member of ``group`` (one-objective
        requests of one :func:`solve_stacked` group) whose objective a
        basis proves optimal."""
        layout = self.layout
        b = np.array([problem.b for _, problem, _ in group]) * layout.row_sign
        X, both, objective, Y, pair = self._optimal(
            b, [objective for _, _, (objective,) in group])
        rows = np.flatnonzero(both.any(axis=1))
        if not rows.size:
            return
        pick = both[rows].argmax(axis=1)            # the first basis that passes both
        x_std = np.zeros((len(rows), layout.n_total))
        x_std[np.arange(len(rows))[:, None], self.cols[pick]] = X[rows, pick]
        x = layout.x_rows(x_std)
        duals = {}
        for e, (h, tag) in enumerate(zip(rows.tolist(),
                                         zip(objective[rows].tolist(), pick.tolist()))):
            k, problem, ((sense, c),) = group[h]
            if tag not in duals:                # the same for every member of the tag
                duals[tag] = _duals(problem, sense, c, Y[pair[tag]], layout.row_sign)
                for a in duals[tag]:
                    a.setflags(write=False)
            outcomes[k] = (_optimum(problem, c, x[e], duals[tag], self.labels[tag[1]], 0),)

    def slopes(self, group, outcomes):
        """Answer in ``outcomes`` each ``(k, RangeRequest)`` member of
        ``group`` whose every interval end a basis gives (see
        :class:`BasisPool`)."""
        row_sign = self.layout.row_sign
        problems = [request.problem for _, request in group]
        b = np.array([problem.b for problem in problems]) * row_sign
        X, both, objective, Y, pair = self._optimal(
            b, [(problem.sense, problem.c) for problem in problems])
        if not both.any():
            return
        # ends[r, n, t, 0 / 1]: basis n gives request r the right / left slope of row t
        zero = np.abs(X) <= _primal_tol(b)[:, None, None]
        ends = both[:, :, None, None] & ~(zero[:, :, :, None, None] & self.falls).any(axis=2)
        found, pick = ends.any(axis=1), ends.argmax(axis=1)
        # y_t of each end's basis, in the problem's orientation (as _duals
        # reads it); where no basis gives an end, its slope is never read
        flip = np.array([-1.0 if problem.sense == "max" else 1.0 for problem in problems])
        t = np.arange(b.shape[1])[None, :, None]
        slope = Y[pair[objective[:, None, None], pick], t] * row_sign[t] * flip[:, None, None]
        first = both.argmax(axis=1)                 # a basis optimal at b itself
        value = (Y[pair[objective, first]] * b).sum(axis=1)
        z_tol = current().feas
        for (k, (problem, rows, z_min)), ok, at, z in zip(
                group, found.tolist(), slope.tolist(), value.tolist()):
            if (rows and all(ok[i][0] and ok[i][1] for i in rows)
                    and abs(z - z_min) <= z_tol * (1.0 + abs(z_min))):
                ends_of = [(at[i][1], at[i][0]) for i in rows]      # (left, right)
                outcomes[k] = tuple(ends_of if problem.sense == "min"
                                    else [(hi, lo) for lo, hi in ends_of])


# ---------------------------------------------------------------------------
# dual value ranges
# ---------------------------------------------------------------------------


def _pinned_region(request: RangeRequest) -> LpRequest:
    """The LP request that pivots ``request``: over the feasible region of
    the dual of its problem's minimization form, pinned to that LP's
    optimal value ``z_min`` and built straight from the problem, the min
    and then the max of each row's dual, row by row.  Variable ``i`` is
    ``signs[i]`` times row ``i``'s dual (negated for a ``<=`` row, so each
    is nonnegative or free); there is one row per primal column (``=`` for
    a free one, ``<=`` otherwise) and a last row that pins the dual
    objective."""
    problem, rows, z_min = request
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
    objectives = []
    for idx in rows:
        obj = np.zeros(problem.n_rows)
        obj[idx] = signs[idx]
        objectives += [("min", obj), ("max", obj)]
    return LpRequest(region, tuple(objectives))


def _region_ends(request: RangeRequest, sols) -> tuple:
    """Each row's ``(lo, hi)`` from the solutions ``sols`` of
    :func:`_pinned_region` ``(request)``; raises :class:`LpError` where the
    pinned region is empty, so ``z_min`` is no optimal value."""
    ranges = []
    for k in range(len(request.rows)):
        lo_hi = []
        for sense, s in zip(("min", "max"), sols[2 * k: 2 * k + 2]):
            if s.status == "unbounded":
                lo_hi.append(-math.inf if sense == "min" else math.inf)
            elif s.optimal:
                lo_hi.append(s.objective)
            else:
                raise LpError(
                    "solution is not optimal for problem: no dual solution "
                    f"attains its optimal value {request.z_min!r} (minimization "
                    "form, offset removed)"
                )
        lo, hi = lo_hi
        if request.problem.sense == "max":
            lo, hi = -hi, -lo
        ranges.append((float(lo), float(hi)))
    return tuple(ranges)


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
    """:func:`dual_value_ranges` as a step (see :class:`LpRequest`): it
    checks ``solution`` and yields one :class:`RangeRequest`."""
    idxs = tuple(problem.row_index(row_id) for row_id in row_ids)
    if not solution.optimal:
        raise LpError(f"dual_value_range needs an optimal primal, got {solution.status}")
    _check_point(problem, solution)
    z_min = solution.objective - problem.objective_offset
    if problem.sense == "max":
        z_min = -z_min
    return (yield RangeRequest(problem, idxs, z_min))


def dual_interval_has_width(lo: float, hi: float) -> bool:
    """Whether a dual value interval holds more than one value; one with an
    infinite end has width unless both ends are the same."""
    if math.isinf(lo) or math.isinf(hi):
        return lo != hi
    return hi - lo > 1e-7 * (1.0 + abs(lo) + abs(hi))


def detect_degeneracy(problem: LinearProgram, solution: LpSolution) -> DegeneracyReport:
    """Flag basic variables at zero and rows whose dual is not unique."""
    if not solution.optimal:
        raise LpError("detect_degeneracy requires an optimal solution")
    # checks that solution is an optimum of problem, its shape included
    dual_multiple = tuple(dual_interval_has_width(lo, hi) for lo, hi in
                          dual_value_ranges(problem, range(problem.n_rows),
                                            solution=solution))
    x = solution.x
    deg = current().deg
    values = {}
    for j in range(problem.n_vars):
        lbl = problem.var_label(j)
        values[lbl] = x[j]
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
