"""Command-line front end: scenario files in, reports and CSV out.

Verbs
-----
run <config>         full report for one scenario (text, json or csv)
sweep <config>       CSV over a 1- or 2-dimensional parameter grid
selftest             randomized verification sweep, nonzero exit on failure
dump-tables          the embedded group table as CSV

Config files are flat JSON objects naming the nine parameters::

    {"ci_r": 60, "cp_r": 1, "m_r": 3000, "ci_f": 82, "cp_f": 20,
     "m_f": 4000, "cl": 200, "d1": 2000, "d2": 8000,
     "sweep": [{"param": "d2", "from": 2000, "to": 14800, "steps": 129}],
     "output": {"format": "csv", "path": "out.csv"}}

Exit codes: 0 ok, 1 validation error, 2 verification failure.
Tolerances accept environment overrides (GENMARGIN_TOL_FEAS and friends),
read once per process by every layer; a malformed one exits 1.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import tolerances
from .groups import analytic_solution, classify, table_csv
from .lp import BasisPool, run_lockstep
from .model import (
    ATLAS,
    PARAM_FIELDS,
    ModelError,
    SystemParams,
    feasibility_limit,
    lrmc_step,
    solve_lrmc,
)
from .pricing import (
    cost_recovery,
    group_orientation,
    investment_allocation,
    lrmc_profile_for_group,
    sales,
    srmc_profile,
)
from .sampling import random_params
from .srmc import compute_srmc, predict_srmc_from_lrmc, resolved_step, srmc_step
from .verify import cross_check

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_VERIFICATION = 2

#: Sweep grid points or selftest scenarios evaluated in lockstep: each LP
#: stage of a chunk is one batched solve (``lp.run_lockstep``).  A chunk's
#: items keep their LPs and results alive until it ends, so memory grows
#: with the chunk.  The atlas (:func:`basis_atlas`) certifies every LP of
#: the benchmark's grids and of selftest's draws, so a chunk pivots
#: nothing, and its cost is the certificates, batched per stage.  In
#: ``perfbench/run.py`` (2-core x86-64, 8 s runs, seed 3, two runs each),
#: sweep read 6,298-6,550 / 7,152-7,192 / 7,171-7,230 items/s at 32 / 64 /
#: 128 rows, with peak RSS 39.3-39.5 / 39.5-39.6 / 40.3-40.5 MB.  A bigger
#: chunk adds nothing on the benchmark's 121-row grids or on selftest's
#: 50-scenario rounds.
CHUNK = 128


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SweepBlock:
    param: str
    start: float
    stop: float
    steps: int


@dataclass(frozen=True)
class ScenarioConfig:
    params: SystemParams
    sweeps: tuple
    output_format: str
    output_path: str


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON (line {exc.lineno}): {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")

    known = set(PARAM_FIELDS) | {"sweep", "output"}
    for key in raw:
        if key not in known:
            raise ConfigError(f"unknown config field {key!r}")
    missing = [f for f in PARAM_FIELDS if f not in raw]
    if missing:
        raise ConfigError(f"missing parameter fields: {', '.join(missing)}")
    values = {f: _number(raw[f], f"field {f!r}") for f in PARAM_FIELDS}
    try:
        params = SystemParams.from_values(**values)
    except ModelError as exc:
        raise ConfigError(f"invalid parameters: {exc}") from exc

    sweeps = []
    blocks = raw.get("sweep", [])
    if not isinstance(blocks, list):
        raise ConfigError("sweep must be a list of blocks")
    for blk in blocks:
        if not isinstance(blk, dict):
            raise ConfigError("sweep entries must be objects")
        try:
            name, start, stop, steps = blk["param"], blk["from"], blk["to"], blk["steps"]
        except KeyError as exc:
            raise ConfigError(f"sweep block needs param/from/to/steps: {exc}") from None
        start = _number(start, "sweep 'from'")
        stop = _number(stop, "sweep 'to'")
        steps = _number(steps, "sweep 'steps'")
        if not steps.is_integer():
            raise ConfigError(f"sweep steps must be a whole number, got {steps!r}")
        steps = int(steps)
        if name not in PARAM_FIELDS:
            raise ConfigError(f"sweep parameter {name!r} is not a model field")
        for key, value in (("from", start), ("to", stop)):
            if not math.isfinite(value):
                raise ConfigError(f"sweep {key!r} of {name!r} must be finite, got {value!r}")
        if steps < 2:
            raise ConfigError("sweep needs steps >= 2")
        if start == stop:
            raise ConfigError("sweep needs from != to")
        sweeps.append(SweepBlock(name, start, stop, steps))
    if len(sweeps) > 2:
        raise ConfigError("at most two sweep dimensions supported")
    if len(sweeps) == 2 and sweeps[0].param == sweeps[1].param:
        raise ConfigError(f"sweep names parameter {sweeps[0].param!r} twice")

    out = raw.get("output", {})
    if not isinstance(out, dict):
        raise ConfigError("output must be an object")
    fmt = out.get("format", "text")
    if fmt not in ("text", "csv", "json"):
        raise ConfigError(f"output format must be text/csv/json, got {fmt!r}")
    path = out.get("path", "")
    if not isinstance(path, str):
        raise ConfigError(f"output path must be a string, got {path!r}")
    return ScenarioConfig(params=params, sweeps=tuple(sweeps),
                          output_format=fmt, output_path=path)


def _number(value, what: str) -> float:
    """``value`` as a float, if JSON gave a number for it: a string or a
    boolean is no number, though ``float`` would take it."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:       # an integer literal past the float range
            pass
    raise ConfigError(f"{what} must be a number, got {value!r}")


# ---------------------------------------------------------------------------
# single-scenario report
# ---------------------------------------------------------------------------


def _scenario(params: SystemParams) -> tuple:
    """The report of one scenario, and whether its short-run prices pass
    :func:`_rules_hold`."""
    lr = solve_lrmc(params)
    check = cross_check(params, lrmc=lr)
    analytic = check.analytic
    group = analytic.group
    srmc = compute_srmc(params, analytic.decision, lrmc_objective=lr.objective,
                        analytic=analytic)

    profile = lrmc_profile_for_group(group.gid)
    orient = group_orientation(group.gid)
    lrmc_recovery = cost_recovery(analytic.lrmc, analytic.decision, params)
    srmc_recovery = cost_recovery(srmc.resolved, analytic.decision, params)
    table_srmc = srmc_profile(profile, params, orient)

    d = analytic.decision
    return {
        "params": {f: getattr(params, f) for f in PARAM_FIELDS},
        "group": group.gid,
        "cluster": group.cluster,
        "peak_period": group.peak_period,
        "boundary": group.boundary,
        "profile": analytic.profile_id,
        "decision": {
            "i_r1": d.i_r1, "i_r2": d.i_r2, "i_f1": d.i_f1, "i_f2": d.i_f2,
            "p_r1": d.p_r1, "p_r2": d.p_r2, "p_f1": d.p_f1, "p_f2": d.p_f2,
            "l_1": d.l_1, "l_2": d.l_2,
        },
        "objective": lr.objective,
        "lrmc": list(analytic.lrmc),
        "srmc": {
            "intervals": [list(iv) for iv in srmc.intervals],
            "resolved": list(srmc.resolved),
            "epsilon": srmc.epsilon,
            "rules": list(srmc.rules),
            "profile_prices": list(table_srmc.prices),
            "profile_recovered": table_srmc.recovered,
        },
        "recovery": {
            "lrmc": _recovery_dict(lrmc_recovery),
            "srmc": _recovery_dict(srmc_recovery),
        },
        "allocation": [
            {"tech": a.tech, "invest_cost": a.invest_cost,
             "peak_share": a.peak_share, "offpeak_share": a.offpeak_share,
             "rule": a.rule}
            for a in investment_allocation(params, analytic.decision)
        ],
        "cross_check": {
            "passed": check.passed,
            "failures": [f"{c.name}: {c.detail}" for c in check.failures()],
            "max_slackness_residual": check.slackness.max_residual,
        },
    }, _rules_hold(params, srmc)


def _recovery_dict(rep):
    return {"revenue": rep.revenue, "total_cost": rep.total_cost,
            "profit": rep.profit, "recovered": rep.recovered}


def _format_text(rep: dict) -> str:
    d = rep["decision"]
    lines = [
        "scenario: " + ", ".join(f"{k}={v:g}" for k, v in rep["params"].items()),
        f"group {rep['group']} (cluster {rep['cluster']}, peak period "
        f"{rep['peak_period']}, profile {rep['profile']}"
        + (", on a boundary)" if rep["boundary"] else ")"),
        f"invested capacity  I_r=({d['i_r1']:g}, {d['i_r2']:g})  "
        f"I_f=({d['i_f1']:g}, {d['i_f2']:g})",
        f"generation         P_r=({d['p_r1']:g}, {d['p_r2']:g})  "
        f"P_f=({d['p_f1']:g}, {d['p_f2']:g})  shed=({d['l_1']:g}, {d['l_2']:g})",
        f"total cost         {rep['objective']:.6f}",
        f"long-run prices    ({rep['lrmc'][0]:g}, {rep['lrmc'][1]:g})",
        f"short-run prices   ({rep['srmc']['resolved'][0]:g}, "
        f"{rep['srmc']['resolved'][1]:g})   epsilon={rep['srmc']['epsilon']:g}",
        "short-run intervals " + "  ".join(
            f"period {t+1}: [{iv[0]:g}, {iv[1]:g}] ({rule})"
            for t, (iv, rule) in enumerate(zip(rep["srmc"]["intervals"],
                                               rep["srmc"]["rules"]))),
    ]
    for kind in ("lrmc", "srmc"):
        r = rep["recovery"][kind]
        verdict = "recovered" if r["recovered"] else "NOT recovered"
        lines.append(
            f"{kind} pricing      revenue {r['revenue']:.6f}  "
            f"cost {r['total_cost']:.6f}  profit {r['profit']:.6f}  ({verdict})")
    for a in rep["allocation"]:
        lines.append(
            f"shared {a['tech']} investment {a['invest_cost']:g}: "
            f"{a['peak_share']:g} to peak, {a['offpeak_share']:g} to off-peak "
            f"[{a['rule']}]")
    ok = rep["cross_check"]["passed"]
    lines.append("cross-check        " + ("pass" if ok else
                 "FAIL: " + "; ".join(rep["cross_check"]["failures"])))
    return "\n".join(lines) + "\n"


def _flatten(rep: dict, prefix=""):
    for k, v in rep.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            yield from _flatten(v, key + ".")
        elif isinstance(v, list) and v and isinstance(v[0], dict):
            for i, item in enumerate(v):
                yield from _flatten(item, f"{key}.{i}.")
        elif isinstance(v, list):
            for i, item in enumerate(v):
                yield f"{key}.{i}", item
        else:
            yield key, v


def _format_csv_single(rep: dict) -> str:
    pairs = list(_flatten(rep))
    buf = io.StringIO()
    buf.write(",".join(k for k, _ in pairs) + "\n")
    buf.write(",".join(_csv_cell(v) for _, v in pairs) + "\n")
    return buf.getvalue()


def _csv_cell(v):
    if isinstance(v, float):
        return repr(v)      # shortest round-trip decimal
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def run_scenario(config: ScenarioConfig) -> tuple:
    """(exit code, report text) for a single scenario: exit 2 where the
    cross-check fails (the report says so) or the short-run prices break
    :func:`_rules_hold` (stderr says so)."""
    rep, rules_hold = _scenario(config.params)
    if config.output_format == "json":
        text = json.dumps(rep, indent=2) + "\n"
    elif config.output_format == "csv":
        text = _format_csv_single(rep)
    else:
        text = _format_text(rep)
    if not rules_hold:
        sys.stderr.write("FAIL: a short-run price is off its rule or its dual interval, "
                         "or an interval is off the merit order\n")
    code = EXIT_OK if rep["cross_check"]["passed"] and rules_hold else EXIT_VERIFICATION
    return code, text


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

SWEEP_COLUMNS = ("group", "profile", "lambda_1", "lambda_2",
                 "srmc_1", "srmc_2", "profit_lrmc", "profit_srmc", "boundary")


def _grid(block: SweepBlock):
    return np.linspace(block.start, block.stop, block.steps)


def sweep_rows(config: ScenarioConfig):
    """(grid values, CSV row) per grid point, in grid order.  The points run
    in chunks of :data:`CHUNK`, each row's LPs solved beside the other
    rows' of its chunk; a ``ValueError`` in one row makes it an ``error``
    row and leaves the others as they are.  Any other exception of a chunk
    escapes, the first in row order, before any of the chunk's rows.

    Every chunk tries the same fixed ``lp.BasisPool`` (:func:`basis_atlas`)
    first: an LP that one of its bases proves optimal, as every LP of the
    benchmark's grids is, is not pivoted.  A
    row prints the closed form and the perturbed short-run duals; the CSV
    is the same with or without the pool, and at any chunk size (see
    ``lp``'s module docstring)."""
    blocks = config.sweeps
    grids = [_grid(b) for b in blocks]
    base = {f: getattr(config.params, f) for f in PARAM_FIELDS}
    if len(blocks) == 1:
        points = [(v,) for v in grids[0]]
    else:
        points = [(v1, v2) for v1 in grids[0] for v2 in grids[1]]
    pool = basis_atlas()
    for start in range(0, len(points), CHUNK):
        chunk = points[start:start + CHUNK]
        steps = []
        for values in chunk:
            over = dict(base)
            for b, v in zip(blocks, values):
                over[b.param] = float(v)
            steps.append(_sweep_row(over))
        rows = run_lockstep(steps, pool)
        for row in rows:
            if isinstance(row, Exception) and not isinstance(row, ValueError):
                raise row
        for values, row in zip(chunk, rows):
            if isinstance(row, ValueError):
                row = ("error", str(row).replace(",", ";")) + ("",) * (len(SWEEP_COLUMNS) - 2)
            yield values, row


@functools.cache
def basis_atlas() -> BasisPool:
    """The ``lp.BasisPool`` of ``sweep`` and ``selftest``, made at its first
    call from the bases ``model.ATLAS`` lists: per layout (a frame and a
    row-sign pattern), the representative block, then the enumerated
    block.  Making it solves no LP: it inverts each of the 183 listed
    bases once, in about 2 ms of CPU time on 2-core x86-64, so a one-shot
    ``sweep`` no longer pays for the 123 solves that once made the atlas
    (CHANGES.md)."""
    return BasisPool({
        frame.layout(np.array([-1.0 if row == "1" else 0.0 for row in negative])):
        tuple([[int(digit, 36) for digit in basis] for basis in block.split()]
              for block in blocks)
        for frame, negative, *blocks in ATLAS})


def _sweep_row(over: dict):
    """One grid point's CSV row, as a step (see ``lp.run_lockstep``): the
    long-run solve and ``srmc.resolved_step``'s two short-run solves,
    frozen at the closed form's build, so no dual interval, which the row
    would not print."""
    params = SystemParams.from_values(**over)
    group = classify(params)
    analytic = analytic_solution(params, group)
    lr = yield from lrmc_step(params)
    resolved = yield from resolved_step(params, analytic.decision, lr.objective)
    _, sold = sales((analytic.lrmc, resolved), analytic.decision, params)
    (*_, p_l), (*_, p_s) = sold
    return (group.gid, analytic.profile_id, analytic.lrmc[0],
            analytic.lrmc[1], resolved[0], resolved[1],
            p_l, p_s, group.boundary)


def run_sweep(config: ScenarioConfig) -> tuple:
    if not config.sweeps:
        raise ConfigError("sweep mode needs at least one sweep block")
    buf = io.StringIO()
    names = [b.param for b in config.sweeps]
    buf.write(",".join(names + list(SWEEP_COLUMNS)) + "\n")
    for values, row in sweep_rows(config):
        cells = [repr(float(v)) for v in values]
        cells += map(_csv_cell, row)
        buf.write(",".join(cells) + "\n")
    return EXIT_OK, buf.getvalue()


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


def run_selftest(seed: int, n: int, out=None) -> int:
    """n randomized scenarios through the cross-check and the short-run
    rule/perturbation agreement, each resolved price inside its dual
    interval and each interval the merit order's (:func:`_rules_hold`).
    Deterministic for a fixed seed.

    Scenarios are drawn in chunks of :data:`CHUNK`.  Each one's long-run LP
    is solved once, for the cross-check and the short-run pipeline both;
    those two run one scenario at a time, and the closed form the
    cross-check builds is the build the short-run pipeline freezes and
    the one its rules are read against.
    The short-run pipelines of a chunk's passing scenarios then run in
    lockstep, and the rules are checked in scenario order.  Output, and
    the error that escapes when a scenario raises, are those of one
    scenario after another: a raising scenario ends the drawing, and an
    earlier scenario's error wins.

    The long-run LP, the frozen and perturbed short-run LPs and the frozen
    LP's dual intervals are tried against :func:`basis_atlas` first; on
    3,000 draws each of seeds 11 and 42 every one was certified without a
    pivot.  An interval with an infinite end is read off the frozen LP's
    own basis.  The cross-check's explicit dual stays pivoted (see
    ``lp``'s module docstring).  The output is the same with or without
    the pool.
    """
    out = sys.stdout if out is None else out
    if n < 1:
        raise ConfigError("selftest needs n >= 1")
    rng = np.random.default_rng(seed)
    pool = basis_atlas()
    failures = 0
    groups_seen = set()
    for start in range(0, n, CHUNK):
        passed, steps, error = [], [], None
        for _ in range(min(CHUNK, n - start)):
            try:
                params = random_params(rng)
                lr = solve_lrmc(params, pool=pool)
                rep = cross_check(params, lrmc=lr)
            except Exception as exc:    # raised once the earlier ones finish
                error = exc
                break
            groups_seen.add(rep.gid)
            if rep.passed:
                passed.append(params)
                steps.append(srmc_step(params, rep.analytic.decision,
                                       lrmc_objective=lr.objective,
                                       analytic=rep.analytic))
            else:
                failures += 1
        for params, srmc in zip(passed, run_lockstep(steps, pool)):
            if isinstance(srmc, Exception):
                raise srmc
            if not _rules_hold(params, srmc):
                failures += 1
        if error is not None:
            raise error
    out.write(f"selftest: seed={seed} n={n}\n")
    out.write(f"pass {n - failures}/{n}, distinct groups {len(groups_seen)}\n")
    if n >= 10_000 and len(groups_seen) < 35:
        out.write(f"FAIL: only {len(groups_seen)} of 41 groups observed\n")
        return EXIT_VERIFICATION
    if failures:
        out.write(f"FAIL: {failures} scenario(s) disagreed\n")
        return EXIT_VERIFICATION
    out.write("all checks passed\n")
    return EXIT_OK


def _rules_hold(params, srmc) -> bool:
    """Whether both periods' resolved short-run prices follow the rules
    from the long-run prices and lie in their frozen-model dual intervals,
    each within 1e-6, with each interval's ends the merit order's
    (``srmc.merit``) within ``lam_match`` (an infinite end exactly).  An
    empty period (demand within ``feasibility_limit`` of 0) follows no
    rule: the perturbed solve prices its first unit at the cheaper of
    ``cp_r`` and ``cl``."""
    ok = True
    for t in (0, 1):
        if params.demand[t] <= feasibility_limit(params):
            want = min(params.cp_r, params.cl)
        else:
            want = predict_srmc_from_lrmc(srmc.lrmc[t], srmc.marginal_cp[t], params.cl)
        price, (lo, hi) = srmc.resolved[t], srmc.intervals[t]
        # equal infinite ends differ by NaN, so they are compared first
        off_merit = [end != merit and not abs(end - merit) <= tolerances.current().lam_match
                     for end, merit in zip((lo, hi), srmc.merit[t])]
        if abs(want - price) > 1e-6 or not lo - 1e-6 <= price <= hi + 1e-6 or any(off_merit):
            ok = False
    return ok


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _emit(text: str, path: str):
    if path:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output: {exc}") from exc
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="genmargin",
        description="marginal generation costs in a two-technology, "
                    "two-period expansion model",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    p_run = sub.add_parser("run", help="report for one scenario")
    p_run.add_argument("config")
    p_sweep = sub.add_parser("sweep", help="CSV over a parameter grid")
    p_sweep.add_argument("config")
    p_self = sub.add_parser("selftest", help="randomized verification sweep")
    p_self.add_argument("--seed", type=int, default=0)
    p_self.add_argument("--n", type=int, default=1000)
    p_dump = sub.add_parser("dump-tables", help="embedded group table as CSV")
    p_dump.add_argument("--path", default="")
    args = parser.parse_args(argv)

    try:
        tolerances.current()    # a malformed override fails every verb here
        if args.verb == "run":
            config = load_config(args.config)
            code, text = run_scenario(config)
            _emit(text, config.output_path)
            return code
        if args.verb == "sweep":
            config = load_config(args.config)
            code, text = run_sweep(config)
            _emit(text, config.output_path)
            return code
        if args.verb == "selftest":
            return run_selftest(args.seed, args.n)
        if args.verb == "dump-tables":
            _emit(table_csv(), args.path)
            return EXIT_OK
    except (ConfigError, ValueError) as exc:
        # ModelError, ClassificationError and friends are ValueErrors that
        # name the violated assumption
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
