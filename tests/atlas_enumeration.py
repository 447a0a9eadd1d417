"""The basis atlas, derived: every basis of the model's LPs that is optimal
over a full-dimensional set of its inputs.

At fixed costs an optimal basis ``B`` stays optimal over a whole critical
region (Gal & Nedoma, "Multiparametric linear programming", Mgmt. Sci.
1972).  In the model's LPs the demands and capacities enter only the
right-hand side ``b`` and the costs only the objective ``c``, so that
region is a product: the right-hand sides with ``B⁻¹b ≥ 0`` times the
costs that leave every reduced cost ``≥ 0``.  Each factor is a polyhedral
cone in the model's parameters, and it is full-dimensional exactly where
one point holds every inequality that is not identically zero strictly:
one LP per factor, ``max s`` subject to each such inequality ``≥ s``, the
parameters in the model's domain and summing to at most 1.

:func:`enumerate_bases` tests every nonsingular column set of every frame
and layout that ``sweep`` and ``selftest`` reach: the long-run LP's one
layout, and the short-run LP's nine (each capacity of a period is zero or
positive, and a technology's period-2 capacity is at least its period-1
capacity).  Every point of the model's domain lies in the closure of
those regions, so one of the bases found is optimal there.
:func:`representative_bases` reaches the bases the optimal solves of a
``sweep`` row's three LPs end on at each group's representative point.
:func:`atlas_blocks` puts the two together in the order they are tried:
the representative bases in the order the solves first reach them, then
the other enumerated bases in column-index order.

Run as a script, this module prints the data block of
``genmargin.model`` that holds them (``_ATLAS``)::

    PYTHONPATH=src python tests/atlas_enumeration.py
"""

import itertools

import numpy as np

from genmargin import cli, groups, lp, model
from genmargin.lp import LpRequest, run_lockstep, solve_stacked

#: Base-36 digits: column ``j`` of a basis is written ``DIGITS[j]``.
DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"

#: Parameters of the long-run right-hand side, (d1, d2, m_r, m_f), and
#: the map to its rows (LRMC_ROW_ORDER).
_LRMC_B = np.array([[1, 0, 0, 0], [0, 1, 0, 0]] + [[0, 0, 0, 0]] * 4
                   + [[0, 0, -1, 0]] * 2 + [[0, 0, 0, -1]] * 2, dtype=float)
#: Parameters of the long-run costs, (ci_r, ci_f, cp_r, cp_f, cl), and the
#: map to its columns (VAR_ORDER).
_LRMC_C = np.array([[1, 0, 0, 0, 0]] * 2 + [[0, 1, 0, 0, 0]] * 2 + [[0, 0, 1, 0, 0]] * 2
                   + [[0, 0, 0, 1, 0]] * 2 + [[0, 0, 0, 0, 1]] * 2, dtype=float)
#: Its domain: costs nonnegative, fossil dearer on both, cl positive, and
#: the group table's ``t_sf <= t_r`` (CI_f / 2 + CP_f <= CI_r + CP_r), without
#: which ``classify`` raises before any LP is made.
_LRMC_COST_DOMAIN = np.array([[1, 0, 0, 0, 0], [-1, 1, 0, 0, 0], [0, 0, 1, 0, 0],
                              [0, 0, -1, 1, 0], [0, 0, 0, 0, 1], [1, -0.5, 1, -1, 0]],
                             dtype=float)
#: Parameters of the short-run costs, (cp_r, cp_f, cl), the map to its
#: columns (SRMC_VAR_ORDER) and their domain.
_SRMC_C = np.array([[1, 0, 0]] * 2 + [[0, 1, 0]] * 2 + [[0, 0, 1]] * 2, dtype=float)
_SRMC_COST_DOMAIN = np.array([[1, 0, 0], [-1, 1, 0], [0, 0, 1]], dtype=float)


def _srmc_rhs(live):
    """``(map, domain)`` of the short-run right-hand side whose capacity rows
    are ``live`` (a bool per cap row): parameters d1, d2 and each live
    capacity, rows SRMC_ROW_ORDER (a capacity enters as ``-cap``); each
    parameter is nonnegative, and a live period-2 capacity is at least its
    live period-1 capacity."""
    caps = [i for i, on in enumerate(live) if on]
    M = np.zeros((6, 2 + len(caps)))
    M[0, 0] = M[1, 1] = 1.0
    for k, i in enumerate(caps):
        M[2 + i, 2 + k] = -1.0
    domain = list(np.eye(2 + len(caps)))
    for first, second in ((0, 1), (2, 3)):
        if live[first]:
            row = np.zeros(2 + len(caps))
            row[2 + caps.index(second)], row[2 + caps.index(first)] = 1.0, -1.0
            domain.append(row)
    return M, np.array(domain)


def frames():
    """``(frame, negative-row mask, b map, b domain, c map, c domain)`` for
    every frame and layout ``sweep`` and ``selftest`` reach."""
    out = [(model._LRMC, (False,) * 6 + (True,) * 4, _LRMC_B, np.eye(4),
            _LRMC_C, _LRMC_COST_DOMAIN)]
    tech = ((False, False), (False, True), (True, True))    # zero or live, per period
    for r, f in itertools.product(tech, tech):
        live = r + f
        M, domain = _srmc_rhs(live)
        out.append((model._SRMC, (False, False) + live, M, domain, _SRMC_C,
                    _SRMC_COST_DOMAIN))
    return out


def layout_of(frame, negative):
    """The layout of ``frame`` whose rows ``negative`` have ``b < 0``."""
    return frame.layout(-np.array(negative, dtype=float))


def _full_dimensional(cones):
    """Whether each cone ``{p : G p ≥ 0, D p ≥ 0}``, given as ``(G, D)``,
    has an interior point: ``max s`` over ``G_i p ≥ s`` (rows of ``G`` not
    identically zero), ``D p ≥ s``, ``sum p ≤ 1`` and ``s ≤ 1`` is
    positive.  One stacked solve per shape of LP."""
    requests = []
    for G, D in cones:
        G = np.vstack([G[np.abs(G).max(axis=1) > 1e-9], D])
        k = G.shape[1]
        A = np.zeros((len(G) + 2, k + 1))
        A[:-2, :k], A[:-2, k] = G, -1.0
        A[-2, :k] = A[-1, k] = 1.0
        relations = (">=",) * len(G) + ("<=", "<=")
        b = np.zeros(len(G) + 2)
        b[-2:] = 1.0
        c = np.zeros(k + 1)
        c[k] = 1.0
        requests.append(LpRequest.own(lp.LinearProgram("max", c, A, relations, b)))
    return [sol.optimal and sol.objective > 1e-7 for (sol,) in solve_stacked(requests)]


def enumerate_bases(frame, negative, b_map, b_domain, c_map, c_domain):
    """Every column set of ``frame``'s standard form under the layout
    ``negative`` that is nonsingular and whose right-hand-side and cost
    regions are both full-dimensional, in column-index order."""
    layout = layout_of(frame, negative)
    A = frame.columns[layout][:, : layout.n_total]
    m = A.shape[0]
    sets = np.array(list(itertools.combinations(range(layout.n_total), m)))
    B = A[:, sets].transpose(1, 0, 2)
    nonsingular = np.abs(np.linalg.det(B)) > 0.5        # B is integral
    sets, B = sets[nonsingular], B[nonsingular]
    inverses = np.linalg.inv(B)
    rhs = inverses @ (layout.row_sign[:, None] * b_map)
    cost = layout.cost(np.zeros(c_map.shape[1], dtype=bool), c_map.T).T[: layout.n_total]
    duals = np.transpose(inverses, (0, 2, 1)) @ cost[sets]      # B⁻ᵀ c_B, per parameter
    reduced = cost[None] - A.T[None] @ duals
    rhs_ok = _full_dimensional([(G, b_domain) for G in rhs])
    cost_ok = _full_dimensional([(R, c_domain) for R in reduced])
    return [tuple(s) for s, p, d in zip(sets.tolist(), rhs_ok, cost_ok) if p and d]


def _logged(step, log):
    """``step``, appending each request it makes, with its answer, to ``log``."""
    answer = None
    while True:
        try:
            request = step.send(answer)
        except StopIteration as done:
            return done.value
        answer = yield request
        log.append((request, answer))


def representative_bases():
    """``{(frame, layout): [columns, ...]}``: the optimal bases of a
    ``sweep`` row's three LPs (``cli._sweep_row``) at each group's
    representative point, in group order, solved side by side without a
    pool, as a pool made from those solves keeps them (``lp.BasisPool``):
    each column set once, in the order first reached, its columns in the
    order of the basis rows, none with an artificial column."""
    logs = [[] for _ in groups.GROUPS]
    steps = [_logged(cli._sweep_row({f: getattr(p, f) for f in model.PARAM_FIELDS}), log)
             for p, log in zip(map(groups.representative_params, sorted(groups.GROUPS)), logs)]
    for result in run_lockstep(steps):
        if isinstance(result, Exception):
            raise result
    pool = lp.BasisPool([pair for log in logs for pair in log])
    return {key: [tuple(cols) for cols in block.cols.tolist()]
            for key, (block,) in pool._blocks.items()}


def atlas_blocks():
    """``[(frame, negative mask, representative block, enumerated block)]``
    over :func:`frames`: each block a list of column tuples, in try order."""
    reached = representative_bases()
    out = []
    for spec in frames():
        frame, negative = spec[:2]
        first = reached.get((frame, layout_of(frame, negative)), [])
        known = {frozenset(cols) for cols in first}
        rest = [cols for cols in enumerate_bases(*spec) if frozenset(cols) not in known]
        out.append((frame, negative, first, rest))
    return out


def data_block(blocks) -> str:
    """The ``ATLAS`` literal of ``genmargin.model`` for ``blocks``."""
    names = {id(model._LRMC): "_LRMC", id(model._SRMC): "_SRMC"}
    lines = ["ATLAS = ("]
    for frame, negative, first, rest in blocks:
        mask = "".join("1" if on else "0" for on in negative)
        lines.append(f'    ({names[id(frame)]}, "{mask}",')
        for block, end in ((first, ","), (rest, "),")):
            words = ["".join(DIGITS[j] for j in cols) for cols in block]
            per_line = 60 // (len(negative) + 1)
            parts = [" ".join(words[i:i + per_line])
                     for i in range(0, len(words), per_line)] or [""]
            lines += [f'     "{part} "' for part in parts[:-1]] + [f'     "{parts[-1]}"{end}']
    lines.append(")")
    return "\n".join(lines)


if __name__ == "__main__":
    print(data_block(atlas_blocks()))
