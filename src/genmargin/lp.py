"""Dense LP solver with dual extraction and degeneracy diagnostics.

A deliberately small, transparent implementation: two-phase primal simplex
on a dense tableau with Bland's rule always on, so cycling is impossible
rather than merely unlikely.  Problem sizes in this package are at most a
dozen variables by ten rows; there is no sparsity machinery and no scaling.
Every LP has one objective, its own, and a solve runs phase 2 on the
tableau phase 1 leaves.

A :class:`LinearProgram` is checked once, field by field in a fixed
order, on Python floats (no numpy warnings), the fields it shares with
LPs of its kind once per frame; the first malformed field raises
:class:`LpInputError`.  Every solve has one pivot cap and reads its
tolerances from ``tolerances.current()``.

Each optimality test is written once and shared by the simplex and the
basis certificates.  A phase prices columns by its own cost row: a column
enters while its reduced cost is below ``-feas (1 + max|cost|)``
(:func:`_rc_tol`).  Phase 1 costs each artificial 1 and reads no
objective, so it prices at ``2 feas`` and a feasibility verdict does not
depend on the units of the costs.  A region is feasible, and a basis
primal feasible, within ``feas (1 + max|b|)`` (:func:`_primal_tol`).
Duals, reduced costs and the objective are read off a basis in one place
(:func:`_duals`, :func:`_optimum`).

Batched solves
--------------
Callers that evaluate many scenarios at once write their LP work as
*steps*: generators that yield :class:`LinearProgram` s, each asking for
its own optimum, and :class:`RangeRequest` s, the dual intervals of an
optimum.  :func:`run_lockstep` runs many steps side by side and answers
each round of requests with one :func:`solve_stacked` call;
:func:`run_step` is one step run that way.  :func:`solve_stacked` groups
the LPs by standard-form layout (:meth:`_Frame.layout`), offers each
group to a :class:`BasisPool` where it has one, and pivots every LP the
pool leaves one by one, with :func:`solve_lp`'s own simplex.  Without a
pool every outcome is therefore :func:`solve_lp`'s.  ``sweep`` batches
the three LPs of each grid row this way (the long-run solve and
``srmc.resolved_step``'s two short-run solves; a row computes no dual
interval), ``selftest`` the short-run stage (``srmc.srmc_step``) of its
scenarios; the long-run solve and the cross-check of a ``selftest``
scenario, and every LP of a ``run`` report, are solved one at a time.

``sweep`` and ``selftest`` also pass one :class:`BasisPool` to their LP
stages: the basis atlas (``cli.basis_atlas``), committed as data
(``model.ATLAS``).  At fixed costs only the right-hand side moves from
row to row, and an optimal basis stays optimal over a whole critical
region (Gal & Nedoma, "Multiparametric linear programming", Mgmt. Sci.
1972); explicit MPC stores such bases offline in the same way (Borrelli,
Bemporad & Morari, JOTA 2003).  In the model's LPs the demands and caps
enter only ``b`` and the costs only ``c``, so a critical region is the
product of a right-hand-side region and a cost region.  The atlas lists,
for every layout the two verbs reach, each basis whose two regions are
both full-dimensional in the model's domain: 119 long-run bases, and 64
short-run ones over 9 layouts.  Every input of the domain
lies in the closure of those regions, so some atlas basis is optimal at
each.  The atlas is tried in two blocks: first the representative block
(the 29 long-run and 14 short-run bases that a ``sweep`` row's solves
reach at the groups' representative points), then the enumerated block
(the rest) for the requests the first leaves.  A long-run request of
``random_params`` finds about 5 of the first block's 29 bases primal
feasible but about 52 of the second's 90, so trying all 119 at once costs
more than it saves.  Before the simplex runs, each LP is tried against the
atlas bases of its layout (:class:`BasisPool`;
:func:`run_lockstep`, and so :func:`run_step`, passes the pool to every
round).  A certified answer builds no tableau, reports ``iterations=0``
and depends on its request alone; the rest are pivoted one by one.  A
certified optimum is the simplex's own where that is unique.  Where it is
degenerate, the certified basis may be another optimal one than Bland's
rule reaches, with other duals; its ``x`` is ``B⁻¹b``, not pivoted, and
can differ in the last bits.  Measured on the benchmark's 240 grids for
seeds 0-11 (rounds 0-3: 29,040 rows, so 29,040 LPs of each kind), every
LP was certified; against :func:`solve_lp`, a basis compared as a set of
columns and duals by value:

* perturbed short-run solves, whose duals the CSV prints: every array
  and basis byte-equal;
* frozen short-run solves: 442 on another optimal basis, with other
  flow-balance duals;
* long-run solves: 11,901 on another optimal basis, whose flow-balance
  duals differed on 6,832.

No ``x`` or objective differed on these integer-cost grids, and every
CSV was byte-equal.  Where the long-run optimum is not unique (zero
period-1 demand, or ``cl`` at a rung of the cost ladder), the certified
build may be another optimal one than the simplex's; the verbs freeze
the closed form's build, so their short-run prices do not depend on
which.  Calls without a pool get :func:`solve_lp`'s outcomes.

In ``selftest`` the atlas answers the long-run solve (through
:func:`run_step`), the frozen and perturbed short-run solves and the
frozen solves' dual intervals (see *Dual intervals*), although every draw
has its own costs: over 3,000 draws each of seeds 11 and 42, every one of
them was certified.  An interval with an infinite end, such as an empty
period's, is read off the request's own basis, since no basis gives an
infinite slope.  ``cross_check``'s explicit dual stays pivoted on
purpose: it is solved by :func:`solve_lp`, so strong duality compares a
certified primal with an independently pivoted dual, and an unsound
certificate shows as a gap.

Fixed costs per solve
---------------------
The model's LP kinds each have one frame (:class:`_Frame`), built and
checked at import: ``A``, relations, lower bounds and labels, and per
row-sign pattern the layout of the standard form.  A model LP
checks only its ``c`` and ``b`` (:func:`_vector`, which formats an error
message only to raise it), so a long-run build takes about 3.7 µs and a
short-run one about 4.9 µs (best of 7, 2-core x86-64, Python 3.11); a
solve builds only its right-hand side and tableau.  A standard form is no
object of its own: a solve holds its layout's columns, its ``b`` negated
by the layout's row signs, and its cost row (:meth:`_Layout.cost`), and
:meth:`_Layout.tableau` lays them out.  A layout is one object per frame
and row-sign pattern, made when the frame first sees the pattern
(:meth:`_Frame.layout`), and it holds all that follows from the two: the
columns, their labels and the index of the labels.  It is
:func:`solve_stacked`'s group key and a :class:`BasisPool`'s.
``selftest``, ``sweep`` and ``run`` make 11 layouts between them.
A solve's :class:`LpSolution` is a :func:`record`, set up in one step as
the model's per-item records are, and a model LP (:meth:`_Frame.program`)
gets its fields in one step too (:func:`_assign`), past the checks its
frame has made.  :meth:`_Layout.x_rows` maps a basic solution back
through index arrays its layout makes once, and subtracts the negative
half of a free variable only where the layout splits one.

Dual intervals
--------------
Where ``b`` is interior to the right-hand sides that keep an LP feasible,
a row's dual ranges over the optimal duals between the one-sided slopes
``∂⁻z/∂b_t`` and ``∂⁺z/∂b_t`` of the optimal value (Jansen, de Jong,
Roos & Terlaky, EJOR 1997; Adler & Monteiro, Algorithmica 1992).  The
right slope is ``y_t`` of an optimal basis under which every row of
``(B⁻¹b, row_sign_t B⁻¹e_t)`` is lexicographically nonnegative, a row of
``x_B`` within ``_primal_tol(b)`` of zero counting as zero
(:func:`_falling`), or ``inf`` where the LP turns infeasible at once; the
left slope is the same with ``-row_sign_t``.  A :class:`BasisPool` reads
each end off the first atlas basis that gives it.  The requests it
leaves, and every request without a pool, are answered from the basis
the request carries and, for an end that basis does not give, from
dual-simplex pivots (:func:`_basis_ranges`).  No interval builds an LP.
The short-run intervals also have a route with no LP, the merit order
(``groups.merit_order``), which ``selftest`` checks them against.

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

import math
from dataclasses import dataclass, field, fields
from types import MappingProxyType
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


def _assign(obj, values: dict):
    """``obj`` with each of ``values`` set as its attribute in one step,
    through its ``__dict__``: a frozen dataclass's own ``__init__`` sets
    each field through ``object.__setattr__``, which costs 0.6-1.4 µs a
    record (2-core x86-64, Python 3.11)."""
    vars(obj).update(values)
    return obj


def record(**options):
    """Class decorator: the class as a frozen dataclass (``options`` are
    passed on to ``dataclass``) built in one step.  Its ``__init__`` keeps
    the dataclass's signature and defaults but sets every field through
    :func:`_assign`; equality, hashing, ``repr`` and ``dataclasses.replace``
    are the dataclass's, and assigning a field still raises
    ``FrozenInstanceError``.  A record has no ``__post_init__``, no
    keyword-only field and no default factory."""
    def build(cls):
        cls = dataclass(frozen=True, **options)(cls)
        names = [f.name for f in fields(cls) if f.init]
        scope = {"_assign": _assign}
        exec(f"def __init__(self, {', '.join(names)}):\n"      # noqa: S102 - field names
             f"    _assign(self, {{{', '.join(f'{n!r}: {n}' for n in names)}}})\n", scope)
        for attr in ("__defaults__", "__annotations__", "__qualname__"):
            setattr(scope["__init__"], attr, getattr(cls.__init__, attr))
        cls.__init__ = scope["__init__"]
        return cls
    return build


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of ``a`` is finite (on Python floats: no warning)."""
    return all(map(math.isfinite, a.ravel().tolist()))


def _vector(v, name, size, not_finite, wrong_size, *args) -> np.ndarray:
    """``v`` as a read-only float vector, after checking that it is
    one-dimensional, of ``size`` entries (else ``wrong_size``, formatted
    with its length and then ``args``) and finite (else ``not_finite``)."""
    v = np.array(v, dtype=float)
    if v.ndim != 1:
        raise LpInputError(f"{name} must be one-dimensional")
    if len(v) != size:
        raise LpInputError(wrong_size.format(len(v), *args))
    values = v.tolist()
    # a finite sum has only finite terms; else each term is tested
    if not (math.isfinite(sum(values)) or all(map(math.isfinite, values))):
        raise LpInputError(not_finite)
    v.setflags(write=False)
    return v


def _objective_vector(sense, c, n_vars) -> np.ndarray:
    """``c`` as a read-only float vector, after checking that ``(sense, c)``
    is an objective over ``n_vars`` columns."""
    if sense not in ("min", "max"):
        raise LpInputError(f"sense must be 'min' or 'max', got {sense!r}")
    return _vector(c, "c", n_vars, "c must be finite",
                   "objective has {} entries for {} columns", n_vars)


def _rhs_vector(b, n_rows, n_relations) -> np.ndarray:
    """``b`` as :func:`_vector` checks it, for ``n_rows`` rows."""
    return _vector(b, "b", n_rows, "A, b must be finite",
                   "matrix has {1} rows but |b| = {0}, |relations| = {2}", n_rows, n_relations)


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
        _assign(self, dict(frame.fields, _frame=frame, c=c, b=b))

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
    once, here, and per row-sign pattern seen (at most 16 for the model's
    LPs) the layout of its standard form.
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
        self._layouts = {}          # negative-b mask (bytes) -> layout

    def program(self, sense, c, b, objective_offset=0.0) -> LinearProgram:
        """The LP with objective ``(sense, c)``, right-hand side ``b`` and
        ``objective_offset`` over this frame; only ``c`` and ``b`` are
        checked, as :class:`LinearProgram` checks them."""
        m, n = self.A.shape
        c, b = _objective_vector(sense, c, n), _rhs_vector(b, m, m)
        return _assign(object.__new__(LinearProgram), dict(
            self.fields, _frame=self, sense=sense, c=c, b=b, objective_offset=objective_offset))

    def layout(self, b) -> "_Layout":
        """The layout of the standard form with right-hand side ``b``, made
        when its row-sign pattern is first seen."""
        negative = (b < 0).tobytes()
        layout = self._layouts.get(negative)
        if layout is None:
            layout = self._layouts[negative] = _Layout(self, np.where(b < 0, -1.0, 1.0))
        return layout


def _label(labels, k, stem: str) -> str:
    """``labels[k]``, or ``stem`` and ``k`` when there are no labels."""
    return labels[k] if labels else f"{stem}{k}"


@record(eq=False)
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
    """The standard form of a frame under one row-sign pattern: which
    columns split a free variable, which rows get a slack, which start on
    an artificial, and the columns, their labels (structural, slack, then
    artificial) and each label's column (:attr:`index`).

    A frame makes one layout per pattern and shares it between its
    solves, so everything here is read-only.
    """

    def __init__(self, frame, row_sign):
        cols = []          # (original var index, sign)
        for j, is_free in enumerate(np.isinf(frame.lower_bounds).tolist()):
            cols.append((j, +1.0))
            if is_free:
                cols.append((j, -1.0))
        self.col_var = np.array([j for j, _ in cols], dtype=int)
        self.col_sign = np.array([s for _, s in cols])
        self.row_sign = row_sign
        # x_rows' columns: one per variable, and the negative half of each split
        self.kept, self.split = np.flatnonzero(self.col_sign > 0), np.flatnonzero(self.col_sign < 0)
        self.split_var = self.col_var[self.split]

        slack_cols = []
        for i, rel in enumerate(frame.relations):
            if rel == EQ:
                continue
            s = 1.0 if rel == LE else -1.0
            s *= row_sign[i]
            slack_cols.append((i, s))
        m = len(frame.relations)
        A_slack = np.zeros((m, len(slack_cols)))
        for k, (i, s) in enumerate(slack_cols):
            A_slack[i, k] = s
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
        A_art = np.zeros((m, len(self.art_rows)))
        A_art[self.art_rows, range(len(self.art_rows))] = 1.0
        A_struct = frame.A[:, self.col_var] * self.col_sign * row_sign[:, None]
        self.columns = np.hstack([A_struct, A_slack, A_art])
        for a in (self.col_var, self.col_sign, self.row_sign, self.kept, self.split,
                  self.split_var, self.init_basis, self.columns):
            a.setflags(write=False)
        var, row = frame.var_labels, frame.row_labels
        self.labels = tuple([_label(var, j, "x") + ("" if s > 0 else "~") for j, s in cols]
                            + [f"s[{_label(row, i, 'row')}]" for i, _ in slack_cols]
                            + [f"a[{_label(row, i, 'row')}]" for i in self.art_rows])
        self.index = MappingProxyType({name: j for j, name in enumerate(self.labels)})

    def cost(self, flip, C) -> np.ndarray:
        """Standard-form (minimization) cost rows of the objectives ``C``
        (last axis: the original variables), each negated where ``flip`` (a
        ``"max"``), artificial columns (cost 0) included.  ``flip`` has
        ``C``'s shape but the last axis: one objective, or one per row of a
        batch."""
        cost = np.zeros((*C.shape[:-1], self.n_total + len(self.art_rows)))
        cost[..., : self.n_struct] = (
            self.col_sign * np.where(flip[..., None], -C, C)[..., self.col_var])
        return cost

    def x_rows(self, x_std) -> np.ndarray:
        """The original variables of each row of the standard-form ``x_std``,
        each row contiguous (so ``c @ x`` sums in one order) and each zero
        +0.0."""
        x = np.add(x_std[:, self.kept], 0.0, order="C")
        if len(self.split):
            x[:, self.split_var] += -x_std[:, self.split]
        return x

    def tableau(self, b, cost):
        """Phase-1 tableau and start basis of the standard form with
        right-hand side ``b`` (rows negated by :attr:`row_sign`): rows
        ``[columns | b]``, the phase-1 row, then the cost row ``cost``."""
        m = len(b)
        T = np.zeros((m + 2, self.columns.shape[1] + 1))
        T[:m, :-1] = self.columns
        T[:m, -1] = b
        T[m + 1, :-1] = cost
        for i in self.art_rows:
            T[m] -= T[i]
        T[m, self.n_total:-1] = 0.0
        return T, self.init_basis.copy()


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
    artificial column, 0 elsewhere), so ``2 feas`` whatever the objective."""
    return _rc_tol(np.ones(1))


def _primal_tol(b):
    """Primal-feasibility tolerance of each right-hand side of ``b`` (last
    axis): a phase-1 optimum or basic value is held down to
    ``-feas (1 + max|b|)``."""
    return current().feas * (1.0 + np.abs(b).max(axis=-1, initial=0.0))


def _duals(problem, y_std, row_sign):
    """``(duals, reduced costs)`` of ``problem``, in its own orientation,
    from the duals ``y_std`` of the standard form: undo the row negation
    ``row_sign`` and the sense flip, then ``c - y @ A``."""
    y = y_std * row_sign
    if problem.sense != "min":
        y = -y
    return y, problem.c - y @ problem.A


def _optimum(problem, x, duals, basis, iterations) -> LpSolution:
    """The optimal :class:`LpSolution` of ``problem`` at ``x``, with
    ``duals`` from :func:`_duals`."""
    return LpSolution("optimal", x, *duals, float(problem.c @ x) + problem.objective_offset,
                      basis, iterations)


class _Tableau:
    """Dense simplex tableau: ``m`` constraint rows, then reduced-cost rows.

    Row ``m`` is the phase-1 objective (minus the sum of the artificial
    rows), row ``m + 1`` the phase-2 one.  A pivot updates every row, so
    each reduced-cost row stays current whichever row chose it.
    """

    def __init__(self, T, basis, m, n_enter):
        self.T = T
        self.basis = basis
        self.m = m
        self.n_enter = n_enter          # artificial columns never enter
        self.iterations = 0

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
    return _simplex(problem)


def _simplex(problem: LinearProgram) -> LpSolution:
    """:func:`solve_lp`'s two-phase simplex: phase 1 at its own tolerance
    (:func:`_phase1_tol`), then phase 2 on the same tableau.
    :func:`solve_stacked` runs it on the LPs it does not certify, so a
    wrapper of :func:`solve_lp` sees only its callers' own solves."""
    layout = problem._frame.layout(problem.b)
    A, b = layout.columns, problem.b * layout.row_sign
    m = problem.n_rows
    if m == 0:
        raise LpInputError("problem must have at least one row")
    cost = layout.cost(np.array(problem.sense != "min"), problem.c)
    T, basis = layout.tableau(b, cost)
    tab = _Tableau(T, basis, m, layout.n_total)

    if layout.art_rows:
        if tab.run(m, float(_phase1_tol())) == "unbounded":  # cannot happen: objective >= 0
            raise LpError("phase-1 unbounded; numerical corruption")
        if -T[m, -1] > _primal_tol(b):
            return LpSolution(status="infeasible", iterations=tab.iterations)
        _drive_out(T, basis, m, layout.n_total)

    if tab.run(m + 1, float(_rc_tol(cost))) == "unbounded":
        return LpSolution(status="unbounded", iterations=tab.iterations)
    basic = basis < layout.n_total        # a redundant row keeps its artificial basic
    x_std = np.zeros((1, layout.n_total))
    x_std[0, basis[basic]] = T[:m, -1][basic]
    # B' y = c_B against the pristine standard-form columns (an artificial's
    # being the unit column of its row)
    y = np.linalg.solve(A[:, basis].T, cost[basis])
    return _optimum(problem, layout.x_rows(x_std)[0], _duals(problem, y, layout.row_sign),
                    tuple(map(layout.labels.__getitem__, basis.tolist())), tab.iterations)


# ---------------------------------------------------------------------------
# requests, steps and the batched solver
# ---------------------------------------------------------------------------


class RangeRequest(NamedTuple):
    """The dual intervals :func:`dual_ranges_step` asks for, as data: the
    value interval of the dual of each row of ``rows`` (indices) over the
    optimal duals of ``problem``, whose minimization form (offset removed)
    has the optimal value ``z_min`` at ``basis`` (standard-form columns of
    the problem's layout).  A step is sent one ``(lo, hi)`` per row back
    (:func:`solve_stacked`)."""

    problem: LinearProgram
    rows: tuple
    z_min: float
    basis: tuple


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

    A *step* is a generator that yields requests: a :class:`LinearProgram`,
    which asks for its own optimum and is sent one :class:`LpSolution`
    back, or a :class:`RangeRequest`.  A request's solver error is raised
    at its ``yield``; what the step returns is its result.

    Returns each step's result in order, or the exception it raised, so
    one step's error leaves the others running.  Without a pool every
    answer is what :func:`solve_lp` returns for the LP (for a
    :class:`RangeRequest`, the intervals read off its own basis), or the
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


#: Errors the solver raises for one problem; :func:`solve_stacked` returns
#: them as that request's outcome.
_SOLVER_ERRORS = (LpError, np.linalg.LinAlgError)


def solve_stacked(requests, pool: "BasisPool" = None) -> list:
    """Answer every request, a :class:`LinearProgram` or a
    :class:`RangeRequest`; one outcome per request, in order.

    Without a ``pool``, each LP is pivoted by :func:`solve_lp`'s simplex,
    and its outcome is what :func:`solve_lp` returns for it, or the
    :class:`LpError` it raises.  A :class:`RangeRequest` is answered from
    its own basis (:func:`_basis_ranges`), and its outcome is one ``(lo,
    hi)`` per row, or the :class:`LpError` that basis raises.

    With a :class:`BasisPool`, an LP that the pool's bases prove optimal
    (:meth:`BasisPool.certify`) is answered from them, builds no tableau
    and reports ``iterations=0``, and a range request whose every end the
    pool's bases give (:meth:`BasisPool.certify_ranges`) is answered from
    their one-sided slopes; the others are answered as above, one by one.
    The requests are offered to the pool in groups of one standard-form
    layout (:meth:`_Frame.layout`).  A certified answer depends on its
    request alone, and may come from another optimal basis than the
    simplex's (see the module docstring).
    """
    outcomes = [None] * len(requests)
    groups = {}         # layout -> (its LPs, its range requests), each as (k, request)
    for k, request in enumerate(requests):
        ranged = isinstance(request, RangeRequest)
        problem = request.problem if ranged else request
        groups.setdefault(problem._frame.layout(problem.b), ([], []))[ranged].append((k, request))
    for layout, (lps, ranges) in groups.items():
        if pool is not None:
            pool.certify_ranges(layout, ranges, outcomes)
            lps = pool.certify(layout, lps, outcomes)
        for k, request in ranges:
            if outcomes[k] is None:
                outcomes[k] = _solve_apart(_basis_ranges, request)
        for k, problem in lps:
            outcomes[k] = _solve_apart(_simplex, problem)
    return outcomes


def _solve_apart(solve, *args):
    """``solve(*args)``, or the solver error it raises."""
    try:
        return solve(*args)
    except _SOLVER_ERRORS as exc:
        return exc


# ---------------------------------------------------------------------------
# basis certificates
# ---------------------------------------------------------------------------


class BasisPool:
    """Bases tried as optimality certificates before the simplex runs.

    A pool holds, per layout (:meth:`_Frame.layout`, one per frame and
    row-sign pattern, so LPs built directly share bases only with
    themselves), one or more *blocks* of column sets with ``B⁻¹``, tried
    in order.  It never changes, so a certified answer depends on its own
    request alone.  The atlas of ``sweep`` and ``selftest`` is given as
    data, in two blocks (``cli.basis_atlas``).

    LPs are tried in groups of one layout (:func:`solve_stacked`).  Each
    is answered by the first basis, in block order, that passes both halves
    of the simplex's own optimality test, at its own tolerances; an LP goes
    on to the next block only where no basis of a block passes, and one
    that no block certifies is pivoted.  The primal half: ``x_B = B⁻¹b`` is at least
    ``-_primal_tol(b)`` in standard form, one batched product over a
    block's bases per LP.  The dual half: the duals
    ``np.linalg.solve(B.T, c_B)``, as the simplex reads them at its optimum,
    leave every reduced cost of the standard form at least
    ``-_rc_tol(cost)``.  It runs once per distinct objective of a
    :func:`solve_stacked` group in one batched LAPACK call, only for bases
    that pass the primal half for one of the objective's LPs: a cost
    sweep has an objective per row, and solving all bases for each is
    slower than pivoting.

    A :class:`RangeRequest` is tried too (:meth:`certify_ranges`, see the
    module docstring's *Dual intervals*), by bases that pass both halves
    and price the LP at its optimal value (:func:`_prices_at`): each
    interval end comes from the first basis, in block order, that gives
    it."""

    def __init__(self, blocks):
        """The pool of ``blocks``: ``{layout: (block, ...)}``, each block a
        sequence of column lists (standard-form columns of the layout, one
        per row, none artificial), tried in that order."""
        self._blocks = {layout: tuple(_Bases(layout, block) for block in layout_blocks if block)
                        for layout, layout_blocks in blocks.items()}

    def certify(self, layout, members, outcomes) -> list:
        """Answer in ``outcomes`` every ``(k, problem)`` member of a
        :func:`solve_stacked` group of ``layout`` that the pool proves
        optimal; returns the others, in order."""
        for bases in self._blocks.get(layout, ()):
            if not members:
                break
            members = bases.answer(members, outcomes)
        return members

    def certify_ranges(self, layout, members, outcomes):
        """Answer in ``outcomes`` every ``(k, RangeRequest)`` member of a
        :func:`solve_stacked` group of ``layout`` whose every interval end
        the pool's bases give."""
        value = [None] * len(members)       # y b of the first basis optimal at b
        ends = [{} for _ in members]        # (row, side) -> slope of the first basis
        wanted = [2 * len(set(request.rows)) for _, request in members]
        left = range(len(members))
        for bases in self._blocks.get(layout, ()):
            if not left:
                break
            found = bases.slopes([members[h][1] for h in left])
            for h, (z, slopes) in zip(left, found):
                if value[h] is None:
                    value[h] = z
                for end, slope in slopes.items():
                    ends[h].setdefault(end, slope)
            left = [h for h in left if len(ends[h]) < wanted[h]]
        for (k, (problem, rows, z_min, _)), z, at, want in zip(members, value, ends, wanted):
            if rows and len(at) == want and z is not None and _prices_at(z, z_min):
                outcomes[k] = _intervals(problem.sense, [(at[i, 0], at[i, 1]) for i in rows])


class _Bases:
    """A block of a :class:`BasisPool`: column sets of one layout."""

    def __init__(self, layout, cols):
        self.layout = layout
        self.A = layout.columns[:, : layout.n_total]
        self.cols = np.array(cols)
        self.labels = [tuple(map(layout.labels.__getitem__, c)) for c in self.cols.tolist()]
        B = self.A[:, self.cols].transpose(1, 0, 2)         # B[n] = A[:, cols[n]]
        self.BT = B.transpose(0, 2, 1)
        self.inverses = np.linalg.inv(B)
        # steps[n, i, t, 0 / 1]: how x_B[i] of basis n moves as b_t rises / falls
        step = self.inverses * layout.row_sign
        self.steps = np.stack([step, -step], axis=-1)

    def _optimal(self, problems):
        """Both halves of the optimality test, for every basis and LP of
        ``problems``: ``(b, X, both, objective, Y, pair)``.  LP ``r`` has
        the standard-form right-hand side ``b[r]`` and its own objective,
        the ``objective[r]``-th distinct one; ``X[r, n]`` is ``x_B`` of
        basis ``n`` at ``b[r]``, ``both[r, n]`` whether that basis passes
        both halves, and ``Y[pair[d, n]]`` the standard-form duals of
        basis ``n`` under distinct objective ``d`` (``-1`` where not
        computed)."""
        layout = self.layout
        b = np.array([problem.b for problem in problems]) * layout.row_sign
        # the primal half: x_B of every basis, one batched product per LP
        X = (self.inverses.reshape(-1, b.shape[1]) @ b[:, :, None]).reshape(
            len(b), *self.cols.shape)
        held = (X >= -_primal_tol(b)[:, None, None]).all(axis=2)
        distinct = {}       # (sense, objective bytes) -> (its index, an LP of it)
        objective = np.array([distinct.setdefault((p.sense, p.c.tobytes()), (len(distinct), p))[0]
                              for p in problems])
        flip, C = zip(*((p.sense != "min", p.c) for _, p in distinct.values()))
        cost = layout.cost(np.array(flip), np.array(C))[:, : layout.n_total]
        # the dual half, per objective for the bases that hold for one of its LPs
        live = (objective == np.arange(len(cost))[:, None]) @ held
        d, n = np.nonzero(live)
        Y = np.linalg.solve(self.BT[n], cost[d[:, None], self.cols[n]][..., None])[..., 0]
        dual = np.zeros_like(live)
        dual[d, n] = (cost[d] - (Y[:, None] @ self.A)[:, 0] >= -_rc_tol(cost)[d, None]).all(axis=1)
        pair = np.full(live.shape, -1)
        pair[d, n] = np.arange(len(d))
        return b, X, held & dual[objective], objective, Y, pair

    def answer(self, group, outcomes) -> list:
        """Answer in ``outcomes`` each ``(k, problem)`` member of ``group``
        (LPs of one :func:`solve_stacked` group) that a basis proves
        optimal; returns the others, in order."""
        layout = self.layout
        _, X, both, objective, Y, pair = self._optimal([problem for _, problem in group])
        passed = both.any(axis=1)
        rows = np.flatnonzero(passed)
        if not rows.size:
            return group
        pick = both[rows].argmax(axis=1)            # the first basis that passes both
        x_std = np.zeros((len(rows), layout.n_total))
        x_std[np.arange(len(rows))[:, None], self.cols[pick]] = X[rows, pick]
        x = layout.x_rows(x_std)
        duals = {}
        for e, (h, tag) in enumerate(zip(rows.tolist(),
                                         zip(objective[rows].tolist(), pick.tolist()))):
            k, problem = group[h]
            if tag not in duals:                # the same for every member of the tag
                duals[tag] = _duals(problem, Y[pair[tag]], layout.row_sign)
                for a in duals[tag]:
                    a.setflags(write=False)
            outcomes[k] = _optimum(problem, x[e], duals[tag], self.labels[tag[1]], 0)
        return [member for member, done in zip(group, passed.tolist()) if not done]

    def slopes(self, requests) -> list:
        """``(z, ends)`` per :class:`RangeRequest`: ``z`` the value ``y b``
        of the first basis optimal at its ``b`` (``None`` if none is), and
        ``ends`` the slope of each ``(row, 0 / 1)`` of its rows whose right
        / left slope a basis gives, the first such basis's (see
        :class:`BasisPool`)."""
        row_sign = self.layout.row_sign
        problems = [request.problem for request in requests]
        b, X, both, objective, Y, pair = self._optimal(problems)
        if not both.any():
            return [(None, {})] * len(requests)
        # ends[r, n, t, 0 / 1]: basis n gives request r the right / left slope of row t
        falling = _falling(X[..., None, None], _primal_tol(b)[:, None, None, None, None],
                           self.steps)
        ends = both[:, :, None, None] & ~falling.any(axis=2)
        found, pick = ends.any(axis=1), ends.argmax(axis=1)
        # y_t of each end's basis, in the problem's orientation (as _duals
        # reads it); where no basis gives an end, its slope is never read
        flip = np.array([-1.0 if problem.sense == "max" else 1.0 for problem in problems])
        t = np.arange(b.shape[1])[None, :, None]
        slope = Y[pair[objective[:, None, None], pick], t] * row_sign[t] * flip[:, None, None]
        first = both.argmax(axis=1)                 # a basis optimal at b itself
        value = (Y[pair[objective, first]] * b).sum(axis=1)
        return [(z if optimal else None,
                 {(i, side): at[i][side] for i in request.rows for side in (0, 1)
                  if ok[i][side]})
                for request, optimal, z, ok, at in zip(
                    requests, both.any(axis=1).tolist(), value.tolist(),
                    found.tolist(), slope.tolist())]


# ---------------------------------------------------------------------------
# dual value ranges
# ---------------------------------------------------------------------------


def _falling(x_B, tol, step, pinned=False):
    """Which basic values ``x_B`` at zero (within ``tol``) fall along ``step``,
    a ``pinned`` one (an artificial) either way: the lexicographic test."""
    return (np.abs(x_B) <= tol) & ((step < 0) | (pinned & (step != 0)))


def _prices_at(z: float, z_min: float) -> bool:
    """Whether ``z`` is the optimal value ``z_min``, within ``feas (1 + |z_min|)``."""
    return abs(z - z_min) <= current().feas * (1.0 + abs(z_min))


def _intervals(sense, slopes) -> tuple:
    """Each row's ``(lo, hi)``, a zero end +0.0, from its ``(right, left)``
    slopes in the problem's orientation (a maximization's duals negate its
    minimization form's, so they swap)."""
    return tuple((left + 0.0, right + 0.0) if sense == "min" else (right + 0.0, left + 0.0)
                 for right, left in slopes)


def _basis_ranges(request: RangeRequest) -> tuple:
    """Each row's ``(lo, hi)`` of ``request``, from its own basis, which
    must pass both halves of the optimality test and price the LP at
    ``z_min``; else :class:`LpError`."""
    problem, rows, z_min, basis = request
    layout = problem._frame.layout(problem.b)
    A, n, m = layout.columns, layout.n_total, problem.n_rows
    b, cost = problem.b * layout.row_sign, layout.cost(np.array(problem.sense != "min"), problem.c)
    T = np.zeros((m + 1, n + m + 1))        # rows [B⁻¹A | B⁻¹ | x_B], then [rc | 0 | 0]
    try:
        T[:m] = np.linalg.inv(A[:, basis]) @ np.hstack([A[:, :n], np.eye(m), b[:, None]])
        T[m, :n] = cost[:n] - cost[list(basis)] @ T[:m, :n]
        T[m, basis] = 0.0       # as in a simplex tableau (an artificial's is in B⁻¹'s zeros)
        optimal = (T[:m, -1] >= -_primal_tol(b)).all() and (
            T[m, :n] >= -_rc_tol(cost)).all() and _prices_at(
            float(cost[list(basis)] @ T[:m, n:-1] @ b), z_min)     # y b, as for the pool
    except np.linalg.LinAlgError:           # singular, or short of labels the layout has
        optimal = False
    if not optimal:
        raise LpError(f"solution is not optimal for problem: its basis is no optimal "
                      f"basis at its value {z_min!r} (minimization form, offset removed)")
    flip, row_sign = -1.0 if problem.sense == "max" else 1.0, layout.row_sign.tolist()
    return _intervals(problem.sense, [tuple(
        side * flip * _derivative(T.copy(), list(basis), cost, n, _primal_tol(b), t,
                                  side * row_sign[t])
        for side in (1.0, -1.0)) for t in rows])


def _derivative(T, basis, cost, n, tol, t, step):
    """The one-sided derivative of the minimization form's optimal value
    as its standard-form ``b`` moves along ``step`` (±1) times unit column
    ``t``, from the optimal ``basis`` and its tableau ``T`` (rows ``[B⁻¹A |
    B⁻¹ | x_B]`` over the ``n`` columns that may enter, then reduced costs).
    While a basic value at zero falls, the falling row of the lowest basic
    column leaves (Bland's rule) and the column of the dual ratio test
    enters; ``inf`` where none can."""
    m = len(basis)
    for _ in range(MAX_ITERATIONS):
        falling = _falling(T[:m, -1], tol, step * T[:m, n + t], np.array(basis) >= n)
        if not falling.any():
            return step * float(cost[basis] @ T[:m, n + t])
        leave = min(np.flatnonzero(falling).tolist(), key=basis.__getitem__)
        ratios = [r_j / -a_j if a_j < -_PIVOT_TOL else math.inf
                  for a_j, r_j in zip(T[leave, :n].tolist(), T[m, :n].tolist())]
        enter = min(range(n), key=ratios.__getitem__)      # the lowest index on ties
        if ratios[enter] == math.inf:
            return math.inf
        _pivot(T, basis, leave, enter)
    raise _iteration_limit()


def _check_point(problem: LinearProgram, solution: LpSolution):
    """Raise :class:`LpInputError` unless ``solution`` is a point of
    ``problem``: ``x`` finite and of its shape, its rows and lower bounds
    held within ``current().feas`` times one plus the largest ``|b|`` or
    ``|x|``, and ``objective`` equal to ``c @ x + objective_offset`` within
    ``current().feas`` relative.  One ``A @ x``, no solve; whether the
    point is optimal shows at its basis (:func:`_basis_ranges`)."""
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
    """Exact interval of values the row's dual takes over all optimal duals,
    read off the basis of ``solution``, ``problem``'s optimum
    (:func:`solve_lp`; see the module docstring's *Dual intervals*).  A
    degenerate primal optimum shows as an interval of positive width.  A
    ``solution`` that is not a point of ``problem`` raises
    :class:`LpInputError`; one whose basis is no optimal basis of
    ``problem`` at its value raises :class:`LpError`."""
    return dual_value_ranges(problem, (row_id,), solution=solution)[0]


def dual_value_ranges(problem: LinearProgram, row_ids, *, solution: LpSolution) -> tuple:
    """:func:`dual_value_range` of each row in ``row_ids``, in order, from
    one optimality test; each equals the one-row result exactly."""
    return run_step(dual_ranges_step(problem, row_ids, solution=solution))


def dual_ranges_step(problem: LinearProgram, row_ids, *, solution: LpSolution):
    """:func:`dual_value_ranges` as a step (see :func:`run_lockstep`): it
    checks ``solution`` and yields one :class:`RangeRequest` with its basis
    (less any label the problem's layout lacks)."""
    idxs = tuple(problem.row_index(row_id) for row_id in row_ids)
    if not solution.optimal:
        raise LpError(f"dual_value_range needs an optimal primal, got {solution.status}")
    _check_point(problem, solution)
    z_min = solution.objective - problem.objective_offset
    if problem.sense == "max":
        z_min = -z_min
    column = problem._frame.layout(problem.b).index
    basis = tuple(column[label] for label in solution.basis if label in column)
    return (yield RangeRequest(problem, idxs, z_min, basis))


def dual_interval_has_width(lo: float, hi: float) -> bool:
    """Whether a dual value interval holds more than one value; one with an
    infinite end has width unless both ends are the same."""
    if math.isinf(lo) or math.isinf(hi):
        return lo != hi
    return hi - lo > 1e-7 * (1.0 + abs(lo) + abs(hi))


def detect_degeneracy(problem: LinearProgram, solution: LpSolution) -> DegeneracyReport:
    """Flag basic variables at zero (in ``B⁻¹b``) and rows whose dual is not unique."""
    if not solution.optimal:
        raise LpError("detect_degeneracy requires an optimal solution")
    # checks that solution is an optimum of problem, its basis included
    dual_multiple = tuple(dual_interval_has_width(lo, hi) for lo, hi in
                          dual_value_ranges(problem, range(problem.n_rows),
                                            solution=solution))
    layout = problem._frame.layout(problem.b)
    B = layout.columns[:, [layout.index[lbl] for lbl in solution.basis]]
    x_B = np.linalg.solve(B, problem.b * layout.row_sign)
    zero_basic = tuple((lbl, value) for lbl, value in zip(solution.basis, x_B.tolist())
                       if abs(value) <= current().deg)
    return DegeneracyReport(
        primal_degenerate=bool(zero_basic),
        zero_basic=zero_basic,
        dual_multiple=dual_multiple,
    )
