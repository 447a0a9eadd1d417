import bisect
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from genmargin import cli, groups, lp, model, srmc, tolerances
from genmargin.cli import (
    EXIT_OK,
    EXIT_VALIDATION,
    ConfigError,
    load_config,
    main,
    run_scenario,
    run_selftest,
    run_sweep,
    sweep_rows,
)
from genmargin.groups import analytic_solution, classify
from genmargin.model import PARAM_FIELDS, PrimalDecision, SystemParams, solve_lrmc
from genmargin.pricing import cost_recovery
from genmargin.sampling import random_params
from genmargin.srmc import compute_srmc
from genmargin.verify import cross_check

CANONICAL = {
    "ci_r": 60, "cp_r": 1, "m_r": 3000,
    "ci_f": 82, "cp_f": 20, "m_f": 4000,
    "cl": 200, "d1": 2000, "d2": 8000,
}


def write_config(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestRun:
    def test_canonical_scenario(self, tmp_path, capsys):
        path = write_config(tmp_path, CANONICAL)
        assert main(["run", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "group 6" in out
        assert "profile 6" in out
        assert "long-run prices    (1, 102)" in out
        assert "short-run prices   (1, 20)" in out
        assert "cross-check        pass" in out

    def test_canonical_recovery_verdicts(self, tmp_path):
        config = load_config(write_config(tmp_path, CANONICAL))
        code, text = run_scenario(config)
        assert code == EXIT_OK
        lrmc_line = next(l for l in text.splitlines() if l.startswith("lrmc"))
        srmc_line = next(l for l in text.splitlines() if l.startswith("srmc"))
        assert "(recovered)" in lrmc_line
        assert "NOT recovered" in srmc_line

    def test_low_loadshed_cost_full_shed(self, tmp_path, capsys):
        payload = dict(CANONICAL, cl=20)
        assert main(["run", write_config(tmp_path, payload)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "group 1" in out
        assert "long-run prices    (20, 20)" in out

    def test_malformed_field_rejected(self, tmp_path, capsys):
        payload = dict(CANONICAL)
        payload["cL"] = payload.pop("cl")
        assert main(["run", write_config(tmp_path, payload)]) == EXIT_VALIDATION
        assert "error" in capsys.readouterr().err

    def test_missing_field_rejected(self, tmp_path):
        payload = dict(CANONICAL)
        del payload["d2"]
        with pytest.raises(ConfigError, match="missing"):
            load_config(write_config(tmp_path, payload))

    def test_output_not_an_object_rejected(self, tmp_path, capsys):
        payload = dict(CANONICAL, output="csv")
        assert main(["run", write_config(tmp_path, payload)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: output must be an object\n"

    def test_sweep_not_a_list_rejected(self, tmp_path, capsys):
        payload = dict(CANONICAL, sweep=5)
        assert main(["sweep", write_config(tmp_path, payload)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: sweep must be a list of blocks\n"

    @pytest.mark.parametrize("field, value, message", [
        ("ci_r", "60", "field 'ci_r' must be a number, got '60'"),
        ("cp_r", True, "field 'cp_r' must be a number, got True"),
        ("d2", None, "field 'd2' must be a number, got None"),
        ("m_f", 10 ** 400, "field 'm_f' must be a number, got " + repr(10 ** 400)),
        ("from", "2000", "sweep 'from' must be a number, got '2000'"),
        ("to", False, "sweep 'to' must be a number, got False"),
        ("steps", "3", "sweep 'steps' must be a number, got '3'"),
        ("steps", True, "sweep 'steps' must be a number, got True"),
    ])
    def test_number_fields_take_only_json_numbers(self, tmp_path, capsys, field,
                                                  value, message):
        # float() would take a numeric string or a boolean
        block = {"param": "d2", "from": 2000, "to": 4000, "steps": 3}
        payload = dict(CANONICAL, sweep=[block])
        if field in block:
            block[field] = value
        else:
            payload[field] = value
        path = write_config(tmp_path, payload)
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(err.value) == message
        assert main(["sweep", path]) == EXIT_VALIDATION
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_output_path_not_a_string_rejected(self, tmp_path, capsys):
        # an integer path would be opened as an inherited file descriptor
        payload = dict(CANONICAL, output={"path": 987})
        assert main(["run", write_config(tmp_path, payload)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err == "error: output path must be a string, got 987\n"
        assert captured.out == ""

    def test_invalid_params_name_the_assumption(self, tmp_path, capsys):
        payload = dict(CANONICAL, ci_r=90)      # CI_r >= CI_f
        assert main(["run", write_config(tmp_path, payload)]) == EXIT_VALIDATION
        assert "CI_r < CI_f" in capsys.readouterr().err

    @pytest.mark.parametrize("field", PARAM_FIELDS)
    def test_non_finite_parameter_is_named(self, tmp_path, capsys, field):
        # Python's json reads NaN and Infinity
        payload = dict(CANONICAL, **{field: float("nan")})
        assert main(["run", write_config(tmp_path, payload)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == \
            f"error: invalid parameters: {field} must be finite, got nan\n"

    def test_ladder_violation_names_the_assumption(self, tmp_path, capsys):
        payload = dict(ci_r=10, cp_r=1, m_r=1000, ci_f=30, cp_f=2, m_f=1000,
                       cl=50, d1=500, d2=700)
        assert main(["run", write_config(tmp_path, payload)]) == EXIT_VALIDATION
        assert "shared fossil cost" in capsys.readouterr().err

    def test_boundary_scenario_reports_and_passes(self, tmp_path, capsys):
        # exactly on the 2*m_r edge: flagged, price check downgrades to
        # containment, exit stays clean
        payload = dict(CANONICAL, d2=6000)
        assert main(["run", write_config(tmp_path, payload)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "on a boundary" in out
        assert "cross-check        pass" in out

    def test_json_output_roundtrips(self, tmp_path):
        out = tmp_path / "report.json"
        payload = dict(CANONICAL, output={"format": "json", "path": str(out)})
        assert main(["run", write_config(tmp_path, payload)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["group"] == 6
        assert rep["lrmc"] == [1.0, 102.0]
        assert rep["srmc"]["resolved"] == [1.0, 20.0]
        assert rep["recovery"]["lrmc"]["recovered"] is True
        assert rep["recovery"]["srmc"]["recovered"] is False

    @pytest.mark.parametrize("d2, built", [(7000.0, 4), (6000.0, 4)])
    def test_report_solves_the_long_run_once(self, monkeypatch, tableaux, d2, built):
        # the one long-run solve runs at the environment's feasibility
        # tolerance, which reaches it with no keyword passed
        monkeypatch.setenv("GENMARGIN_TOL_FEAS", "1e-8")
        tolerances.current.cache_clear()
        solves = []

        def recorded(params, **kwargs):
            solves.append((kwargs, tolerances.current().feas))
            return real(params, **kwargs)

        real = cli.solve_lrmc
        monkeypatch.setattr(cli, "solve_lrmc", recorded)
        rep = cli.scenario_report(SystemParams.from_values(**dict(CANONICAL, d2=d2)))
        assert solves == [({}, 1e-8)]
        assert rep["boundary"] is (d2 == 6000.0)
        assert len(tableaux) == built


class TestSweep:
    def test_d2_sweep_reproduces_regime_breakpoints(self, tmp_path):
        payload = dict(CANONICAL, sweep=[
            {"param": "d2", "from": 2000, "to": 14800, "steps": 129}])
        config = load_config(write_config(tmp_path, payload))
        code, text = run_sweep(config)
        assert code == EXIT_OK
        lines = text.strip().splitlines()
        assert lines[0].startswith("d2,group,")
        rows = [l.split(",") for l in lines[1:]]
        step = 100.0
        seq = [(float(r[0]), int(r[1])) for r in rows
               if r[9] != "true"]           # interior points only
        groups = [g for _, g in seq]
        assert set(groups) == {3, 4, 6, 7, 8}
        # group changes within one grid step of the capacity breakpoints
        expected = {(3, 4): 5000.0, (4, 6): 6000.0, (6, 7): 10000.0, (7, 8): 14000.0}
        for (a, b), at in expected.items():
            crossings = [d2 for (d2, g), (_, g2) in zip(seq, seq[1:])
                         if g == a and g2 == b]
            assert crossings, f"no {a}->{b} transition"
            assert any(abs(c + step - at) <= step + 1e-9 or abs(c - at) <= step + 1e-9
                       for c in crossings)

    def test_boundary_rows_flagged(self, tmp_path):
        payload = dict(CANONICAL, sweep=[
            {"param": "d2", "from": 2000, "to": 14800, "steps": 129}])
        config = load_config(write_config(tmp_path, payload))
        _, text = run_sweep(config)
        flagged = [l for l in text.splitlines() if l.endswith(",true")]
        # d2 = 2000 (tie), 5000, 6000, 10000, 14000 sit exactly on edges
        assert len(flagged) == 5

    def test_cl_sweep_regime_changes(self, tmp_path):
        payload = dict(CANONICAL, d2=4000, sweep=[
            {"param": "cl", "from": 10, "to": 120, "steps": 111}])
        config = load_config(write_config(tmp_path, payload))
        _, text = run_sweep(config)
        rows = [l.split(",") for l in text.strip().splitlines()[1:]]
        by_cl = {round(float(r[0]), 6): int(r[1]) for r in rows if r[1] != "error"}
        # affordability thresholds at canonical costs: 31, 61 (102 leaves
        # the group unchanged; fossil stays out of the optimal build)
        assert by_cl[30.0] == 1 and by_cl[32.0] == 2
        assert by_cl[60.0] == 2 and by_cl[62.0] == 3
        assert by_cl[103.0] == 3
        t_f = CANONICAL["ci_f"] + CANONICAL["cp_f"]
        assert 101.0 <= t_f < 103.0

    def test_sweep_validation(self, tmp_path):
        for bad in (
            [{"param": "d2", "from": 5, "to": 5, "steps": 2}],
            [{"param": "d2", "from": 1, "to": 2, "steps": 1}],
            [{"param": "nope", "from": 1, "to": 2, "steps": 3}],
            [{"param": "d1", "from": 1, "to": 2, "steps": 3}] * 3,
            [{"param": "d2", "from": 2000, "to": 4000, "steps": 3},
             {"param": "d2", "from": 9000, "to": 12000, "steps": 3}],
            [{"param": "d2", "from": float("nan"), "to": 4000, "steps": 3}],
            [{"param": "d2", "from": 2000, "to": float("inf"), "steps": 3}],
            [{"param": "d2", "from": 2000, "to": 4000, "steps": float("inf")}],
            [{"param": "d2", "from": 2000, "to": 4000, "steps": 2.7}],
        ):
            with pytest.raises(ConfigError):
                load_config(write_config(tmp_path, dict(CANONICAL, sweep=bad)))

    @pytest.mark.parametrize("steps", [float("inf"), 2.7])
    def test_steps_not_a_whole_number_rejected(self, tmp_path, capsys, steps):
        payload = dict(CANONICAL, sweep=[{"param": "d2", "from": 2000, "to": 4000,
                                          "steps": steps}])
        assert main(["sweep", write_config(tmp_path, payload)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err == f"error: sweep steps must be a whole number, got {steps!r}\n"
        assert captured.out == ""

    def test_golden_sweep_bytes(self, tmp_path):
        # full-precision CSV is part of the contract; exact bytes frozen.
        # Hand checks: group 3 short-run profit is -d2*ci_r (missing the
        # peak investment); group 6 long-run profit is (d1 + 4000)*41.
        payload = dict(CANONICAL, sweep=[
            {"param": "d2", "from": 4100, "to": 7300, "steps": 3}])
        config = load_config(write_config(tmp_path, payload))
        code, text = run_sweep(config)
        assert code == EXIT_OK
        assert text == (
            "d2,group,profile,lambda_1,lambda_2,srmc_1,srmc_2,"
            "profit_lrmc,profit_srmc,boundary\n"
            "4100.0,3,3,1.0,61.0,1.0,1.0,0.0,-246000.0,false\n"
            "5700.0,4,3,1.0,61.0,1.0,1.0,0.0,-342000.0,false\n"
            "7300.0,6,6,1.0,102.0,1.0,20.0,246000.0,-352600.0,false\n"
        )

    def test_at_most_three_tableaux_per_row(self, tmp_path, tableaux, monkeypatch):
        # Rows are solved side by side, so each LP answered, from a standard
        # form (stacked or not) or from a pooled basis, is charged to the
        # grid row whose step asked for its problem.  A certified answer
        # builds no standard form and reports no pivots.
        owner, asked, started = {}, [], []
        real = cli._sweep_row

        def tagged(*args):
            row = len(started)
            started.append(row)
            step, answer = real(*args), None
            while True:
                try:
                    request = step.send(answer)
                except StopIteration as done:
                    return done.value
                owner[id(request)] = row
                answer = yield request
                asked.append((request, answer))

        monkeypatch.setattr(cli, "_sweep_row", tagged)
        payload = dict(CANONICAL, sweep=[
            {"param": "d1", "from": 0, "to": 14000, "steps": 8},
            {"param": "d2", "from": 0, "to": 14000, "steps": 8}])
        rows = list(sweep_rows(load_config(write_config(tmp_path, payload))))
        assert all(row[0] != "error" for _, row in rows)
        built = {id(problem) for problem in tableaux}
        certified = [(problem, answer) for problem, answer in asked
                     if id(problem) not in built]
        assert all(answer.iterations == 0 for _, answer in certified)
        counts = (Counter(owner[id(problem)] for problem in tableaux)
                  + Counter(owner[id(problem)] for problem, _ in certified))
        assert len(rows) == len(started) == len(counts) == 64
        assert max(counts.values()) <= 3, counts
        assert len(certified) > 0

    def test_chunked_rows_match_row_by_row_evaluation(self, tmp_path):
        # zero demands, region edges and zero-capacity frozen models, over
        # more than one chunk
        payload = dict(CANONICAL, sweep=[
            {"param": "d1", "from": 0, "to": 14000, "steps": 15},
            {"param": "d2", "from": 0, "to": 14000, "steps": 15}])
        rows = list(sweep_rows(load_config(write_config(tmp_path, payload))))
        assert len(rows) == 225 > cli.CHUNK
        for (d1, d2), row in rows:
            params = SystemParams.from_values(**dict(CANONICAL, d1=d1, d2=d2))
            group = classify(params)
            analytic = analytic_solution(params, group)
            lr = solve_lrmc(params)
            short = compute_srmc(params, analytic.decision, lrmc_objective=lr.objective)
            want = (group.gid, analytic.profile_id, *analytic.lrmc, *short.resolved,
                    cost_recovery(analytic.lrmc, analytic.decision, params).profit,
                    cost_recovery(short.resolved, analytic.decision, params).profit,
                    group.boundary)
            assert [cli._csv_cell(v) for v in row] == [cli._csv_cell(v) for v in want]

    @staticmethod
    def _raise_at(monkeypatch, d2, exc):
        """``srmc.default_epsilon``, which each row's short-run step calls
        after its long-run solve, raises ``exc`` on the row at ``d2``."""
        real = srmc.default_epsilon

        def eps(params):
            if params.d2 == d2:
                raise exc
            return real(params)

        monkeypatch.setattr(srmc, "default_epsilon", eps)

    def test_row_raising_srmc_error_is_an_error_row(self, tmp_path, monkeypatch):
        payload = dict(CANONICAL, sweep=[
            {"param": "d2", "from": 2000, "to": 14800, "steps": 129}])
        config = load_config(write_config(tmp_path, payload))
        clean = list(sweep_rows(config))
        self._raise_at(monkeypatch, 6000.0, srmc.SrmcError("no price, here"))
        rows = list(sweep_rows(config))
        assert len(rows) == len(clean) == 129 > cli.CHUNK
        for (values, row), (_, want) in zip(rows, clean):
            if values == (6000.0,):
                assert row == ("error", "no price; here") + ("",) * 7
            else:
                assert row == want

    def test_infeasible_closed_form_is_an_error_row(self, tmp_path, monkeypatch):
        payload = dict(CANONICAL, sweep=[
            {"param": "d2", "from": 2000, "to": 14800, "steps": 129}])
        config = load_config(write_config(tmp_path, payload))
        clean = list(sweep_rows(config))
        real = PrimalDecision.is_feasible

        def feasible(decision, params):
            return params.d2 != 6000.0 and real(decision, params)

        monkeypatch.setattr(PrimalDecision, "is_feasible", feasible)
        for (values, row), (_, want) in zip(sweep_rows(config), clean):
            if values == (6000.0,):
                assert row == ("error", "decision is infeasible for these parameters",
                               *("",) * 7)
            else:
                assert row == want

    @pytest.mark.parametrize("where", ["row", "solver"])
    def test_iteration_limit_escapes_the_sweep(self, tmp_path, monkeypatch, where):
        if where == "row":
            self._raise_at(monkeypatch, 6000.0, lp.IterationLimitError("pivot cap hit"))
        else:
            real = lp.solve_stacked

            def stacked(requests, **kwargs):
                outcomes = real(requests, **kwargs)
                outcomes[-1] = lp.IterationLimitError("pivot cap hit")
                return outcomes

            monkeypatch.setattr(lp, "solve_stacked", stacked)
        payload = dict(CANONICAL, sweep=[
            {"param": "d2", "from": 2000, "to": 14800, "steps": 129}])
        with pytest.raises(lp.IterationLimitError, match="pivot cap hit"):
            run_sweep(load_config(write_config(tmp_path, payload)))

    #: SHA-256 of the CSV of the README costs on the d1 x d2 grid 0, 1000,
    #: ..., 14000, made before the group check shared ``classify``'s ladder
    #: walk.  Every capacity threshold (3000, 6000, 7000, 10000, 14000, ...)
    #: is a grid point, so 115 of the 225 rows sit exactly on a region edge,
    #: where a changed comparison picks another group.
    THRESHOLD_GRID_SHA256 = "9d9cd307d9495aebe20109c94fd985bdd0f12c1b364c75567788d78205420bbd"

    def test_threshold_grid_bytes(self, tmp_path):
        payload = dict(CANONICAL, sweep=[
            {"param": "d1", "from": 0, "to": 14000, "steps": 15},
            {"param": "d2", "from": 0, "to": 14000, "steps": 15}])
        code, text = run_sweep(load_config(write_config(tmp_path, payload)))
        assert code == EXIT_OK
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert len(rows) == 225 and all(row[2] != "error" for row in rows)
        assert sum(row[-1] == "true" for row in rows) == 115
        assert hashlib.sha256(text.encode()).hexdigest() == self.THRESHOLD_GRID_SHA256

    #: SHA-256 of three CSVs made before ``sweep`` certified LPs with pooled
    #: bases: the README costs at d2 = 8000 with ``cl`` swept over 200
    #: steps, non-integer costs on a 15 x 15 ``d1 x d2`` grid from zero
    #: demand (10 groups, 43 boundary rows), and the README costs on a
    #: 30 x 30 ``cl x cp_f`` grid (every row its own objective).
    POOL_PINS = {
        "cl": ("0910bbe96b1199defb06b8d49c692dd22b7b37c050dbdadd002b43b2a4f06e1b",
               dict(CANONICAL, sweep=[{"param": "cl", "from": 10, "to": 400,
                                       "steps": 200}])),
        "d1xd2": ("11938dd5775bd094ca4e026c1640726b3edc0490cc0ce94f5f272a5eacdafb41",
                  dict(ci_r=71.318265, cp_r=3.90871, m_r=2718.5, ci_f=93.64339,
                       cp_f=17.25518, m_f=4409.25, cl=96.13077, d1=0, d2=0,
                       sweep=[{"param": "d1", "from": 0, "to": 9000, "steps": 15},
                              {"param": "d2", "from": 0, "to": 9000, "steps": 15}])),
        "clxcp_f": ("192dcdeea6ab049324ed5b01588c8c0245e74cf608e7d3840bfd439b0835cef1",
                    dict(CANONICAL, sweep=[{"param": "cl", "from": 1, "to": 300, "steps": 30},
                                           {"param": "cp_f", "from": 1.5, "to": 20,
                                            "steps": 30}])),
    }

    @pytest.mark.parametrize("grid", sorted(POOL_PINS))
    @pytest.mark.parametrize("pooled", [True, False], ids=["pool", "no-pool"])
    def test_sweep_bytes_with_and_without_the_pool(self, tmp_path, monkeypatch,
                                                   grid, pooled):
        sha, payload = self.POOL_PINS[grid]
        if not pooled:
            monkeypatch.setattr(cli, "basis_atlas", lambda: None)
        code, text = run_sweep(load_config(write_config(tmp_path, payload)))
        assert code == EXIT_OK
        assert hashlib.sha256(text.encode()).hexdigest() == sha

    def test_cost_sweep_is_mostly_certified(self, tmp_path, monkeypatch):
        # every row of the cl x cp_f grid has its own objectives, so only
        # bases made without its rows can certify them
        answers = []
        real = lp.solve_stacked

        def stacked(requests, **kwargs):
            outcomes = real(requests, **kwargs)
            answers.extend(outcomes)
            return outcomes

        monkeypatch.setattr(lp, "solve_stacked", stacked)
        _, payload = self.POOL_PINS["clxcp_f"]
        run_sweep(load_config(write_config(tmp_path, payload)))
        assert len(answers) == 3 * 900
        certified = sum(answer.iterations == 0 for answer in answers)
        assert certified >= 0.9 * len(answers)

    #: The benchmark's five sweep grids of seed 1, round 0: integer costs,
    #: caps and the loadshed price, on an 11 x 11 ``d1 x d2`` grid to ``top``.
    BENCH_GRIDS = [
        # ci_r cp_r ci_f cp_f  m_r   m_f    cl       top
        (83, 17, 85, 19, 240, 960, 42.41, 2400),
        (93, 3, 94, 45, 3360, 5040, 64.877, 16800),
        (59, 13, 82, 14, 1200, 4800, 65.812, 12000),
        (65, 12, 97, 18, 2400, 3600, 101.142, 12000),
        (98, 14, 108, 25, 6480, 1620, 184.457, 16200),
    ]

    @pytest.mark.parametrize("grid", range(len(BENCH_GRIDS)))
    def test_sweep_bytes_do_not_depend_on_the_chunk(self, tmp_path, monkeypatch, grid):
        *values, top = self.BENCH_GRIDS[grid]
        payload = dict(zip(("ci_r", "cp_r", "ci_f", "cp_f", "m_r", "m_f", "cl"), values),
                       d1=0, d2=0, sweep=[{"param": p, "from": 0, "to": top, "steps": 11}
                                          for p in ("d1", "d2")])
        config = load_config(write_config(tmp_path, payload))
        texts = []
        for chunk in (8, 32, cli.CHUNK):
            monkeypatch.setattr(cli, "CHUNK", chunk)
            texts.append(run_sweep(config)[1])
        assert texts[0] == texts[1] == texts[2]

    def test_only_sweep_and_selftest_make_the_basis_atlas(self, tmp_path):
        # in a fresh process: the import, a report and the table leave the
        # pool unmade; selftest makes it, and a sweep under the same
        # tolerances makes it no more
        run = write_config(tmp_path, CANONICAL, "run.json")
        sweep = write_config(tmp_path, dict(CANONICAL, sweep=[
            {"param": "d2", "from": 100, "to": 200, "steps": 2}]), "sweep.json")
        code = ("import contextlib, io, genmargin\n"
                "from genmargin import cli\n"
                "made = [cli.basis_atlas.cache_info().misses]\n"
                f"for argv in (['run', {run!r}], ['dump-tables'], ['selftest', '--n', '3'],\n"
                f"             ['sweep', {sweep!r}], ['sweep', {sweep!r}]):\n"
                "    with contextlib.redirect_stdout(io.StringIO()):\n"
                "        assert cli.main(argv) == 0\n"
                "    made.append(cli.basis_atlas.cache_info().misses)\n"
                "print(made)\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out == "[0, 0, 0, 1, 1, 1]\n"

    def test_two_dimensional_sweep_row_count(self, tmp_path):
        payload = dict(CANONICAL, sweep=[
            {"param": "d1", "from": 1000, "to": 2000, "steps": 3},
            {"param": "d2", "from": 7000, "to": 9000, "steps": 4}])
        config = load_config(write_config(tmp_path, payload))
        _, text = run_sweep(config)
        assert len(text.strip().splitlines()) == 1 + 12


class TestSelftest:
    def test_small_run_passes(self):
        buf = io.StringIO()
        assert run_selftest(seed=42, n=25, out=buf) == EXIT_OK
        assert "pass 25/25" in buf.getvalue()

    def test_at_most_four_tableaux_per_scenario(self, tableaux, monkeypatch):
        # A chunk's short-run LPs are solved side by side after the scalar
        # stage of all its scenarios, so each standard form is charged to
        # the scenario whose short-run step asked for its problem, or else
        # to the scenario drawn last before it was built.  Every tagged
        # problem is held, so that no later one takes its id.  A range
        # request builds no tableau.
        owner, drawn, held = {}, [], []
        real_draw, real_step = cli.random_params, cli.srmc_step

        def draw(rng):
            drawn.append(len(tableaux))
            return real_draw(rng)

        def tagged(*args, **kwargs):
            return tag(real_step(*args, **kwargs), len(drawn) - 1)

        def tag(step, scenario):
            answer = None
            while True:
                try:
                    request = step.send(answer)
                except StopIteration as done:
                    return done.value
                owner[id(request)] = scenario
                held.append(request)
                answer = yield request

        monkeypatch.setattr(cli, "random_params", draw)
        monkeypatch.setattr(cli, "srmc_step", tagged)
        n = cli.CHUNK + 8
        assert run_selftest(seed=9, n=n, out=io.StringIO()) == EXIT_OK
        counts = Counter(owner.get(id(problem), bisect.bisect_right(drawn, i) - 1)
                         for i, problem in enumerate(tableaux))
        assert len(drawn) == len(counts) == n
        assert max(counts.values()) <= 4, counts

    @staticmethod
    def count_closed_forms(monkeypatch):
        """``(calls, drawing)``: ``calls[name, drawing[0]]`` counts the
        ``classify`` and ``analytic_solution`` calls, at every module that
        binds them, split by whether ``drawing[0]`` was set at the call."""
        calls, drawing = Counter(), [False]

        def counted(name, fn):
            def wrapped(*args, **kwargs):
                calls[name, drawing[0]] += 1
                return fn(*args, **kwargs)
            return wrapped

        for name in ("classify", "analytic_solution"):
            orig = getattr(groups, name)
            wrapper = counted(name, orig)
            for module in [m for n, m in sys.modules.items() if n.startswith("genmargin")]:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        monkeypatch.setattr(module, attr, wrapper)
        return calls, drawing

    def test_one_closed_form_per_scenario(self, monkeypatch):
        # Outside random_params, the cross-check classifies and evaluates
        # the closed form (which checks its group without classifying), and
        # the short-run step reads that closed form.
        calls, drawing = self.count_closed_forms(monkeypatch)
        real_draw = cli.random_params

        def draw(rng):
            drawing[0] = True
            try:
                return real_draw(rng)
            finally:
                drawing[0] = False

        monkeypatch.setattr(cli, "random_params", draw)
        n = cli.CHUNK + 8
        assert run_selftest(seed=9, n=n, out=io.StringIO()) == EXIT_OK
        assert calls["classify", False] == n
        assert calls["analytic_solution", False] == n
        assert calls["classify", True] >= n and calls["analytic_solution", True] == 0

    def test_one_closed_form_per_report(self, monkeypatch):
        calls, _ = self.count_closed_forms(monkeypatch)
        for d2 in (8000.0, 6000.0):         # the README scenario, its boundary
            cli.scenario_report(SystemParams.from_values(**dict(CANONICAL, d2=d2)))
        assert calls == {("classify", False): 2, ("analytic_solution", False): 2}

    def test_one_classify_per_closed_form_chain(self, monkeypatch):
        # The regime-map chain: analytic_solution, cost_recovery and
        # srmc_profile take the group classify gave and classify nothing.
        from genmargin import pricing
        rng = np.random.default_rng(5)
        inputs = ([groups.representative_params(gid) for gid in range(1, 42)]
                  + [random_params(rng) for _ in range(200)])
        calls, _ = self.count_closed_forms(monkeypatch)
        for params in inputs:
            group = groups.classify(params)
            analytic = groups.analytic_solution(params, group)
            pricing.cost_recovery(analytic.lrmc, analytic.decision, params)
            pricing.srmc_profile(pricing.lrmc_profile_for_group(group.gid), params,
                                 pricing.group_orientation(group.gid))
        n = len(inputs)
        assert calls == {("classify", False): n, ("analytic_solution", False): n}

    @staticmethod
    def chunked_selftest(monkeypatch, seed, n):
        """``(output, chunks)`` of ``run_selftest(seed, n)``: ``chunks`` holds
        the results of each of its ``run_lockstep`` rounds."""
        chunks = []
        real = cli.run_lockstep

        def lockstep(steps, pool):
            results = real(steps, pool)
            chunks.append(results)
            return results

        monkeypatch.setattr(cli, "run_lockstep", lockstep)
        got = io.StringIO()
        assert run_selftest(seed=seed, n=n, out=got) == EXIT_OK
        return got.getvalue(), chunks

    @staticmethod
    def scenario_by_scenario(seed, n):
        """``(output, results)`` of ``run_selftest(seed, n)`` remade one
        scenario after another with the scalar, pool-free calls: its text and
        the short-run result of each scenario that passes the cross-check."""
        rng = np.random.default_rng(seed)
        failures, gids, want = 0, set(), []
        for _ in range(n):
            params = random_params(rng)
            lr = solve_lrmc(params)
            rep = cross_check(params, lrmc=lr)
            gids.add(rep.gid)
            ok = rep.passed
            if ok:
                short = compute_srmc(params, rep.analytic.decision,
                                     lrmc_objective=lr.objective)
                want.append(short)
                for t in (0, 1):
                    cp = short.marginal_cp[t]
                    rule = params.cl if cp is None else srmc.predict_srmc_from_lrmc(
                        short.lrmc[t], cp, params.cl)
                    lo, hi = short.intervals[t]
                    if (abs(rule - short.resolved[t]) > 1e-6
                            or not lo - 1e-6 <= short.resolved[t] <= hi + 1e-6):
                        ok = False
            failures += not ok
        return (f"selftest: seed={seed} n={n}\n"
                f"pass {n - failures}/{n}, distinct groups {len(gids)}\n"
                "all checks passed\n"), want

    def test_chunked_run_matches_scenario_by_scenario(self, monkeypatch):
        # with an empty pool every LP is pivoted, so every result is the
        # scalar one bit for bit
        monkeypatch.setattr(cli, "basis_atlas", lambda: lp.BasisPool({}))
        n = 2 * cli.CHUNK + 6           # two full chunks and a partial one
        got, chunks = self.chunked_selftest(monkeypatch, 11, n)
        text, want = self.scenario_by_scenario(11, n)
        assert got == text
        assert len(chunks) == 3
        assert [r for results in chunks for r in results] == want

    def test_pooled_chunked_run_matches_scenario_by_scenario(self, monkeypatch):
        # A certified LP may be answered by another optimal basis than the
        # simplex's, its x from B⁻¹b: the same text, every result within
        # 1e-9 relative.
        n = 2 * cli.CHUNK + 6
        got, chunks = self.chunked_selftest(monkeypatch, 11, n)
        text, want = self.scenario_by_scenario(11, n)
        assert got == text
        assert len(chunks) == 3
        results = [r for results in chunks for r in results]
        assert len(results) == len(want)

        def close(a, b):
            if isinstance(a, float) and isinstance(b, float):
                return a == b or abs(a - b) <= 1e-9 * (1.0 + abs(b))
            if isinstance(a, tuple) and isinstance(b, tuple):
                return len(a) == len(b) and all(map(close, a, b))
            return a == b

        for r, w in zip(results, want):
            assert close(dataclasses.astuple(r), dataclasses.astuple(w)), (r, w)

    @pytest.mark.parametrize("seed", [7, 9, 42])
    def test_output_does_not_depend_on_the_pool(self, monkeypatch, seed):
        runs = []
        for atlas in (cli.basis_atlas, lambda: lp.BasisPool({})):
            monkeypatch.setattr(cli, "basis_atlas", atlas)
            out = io.StringIO()
            runs.append((run_selftest(seed=seed, n=300, out=out), out.getvalue()))
        assert runs[0] == runs[1]
        assert runs[0][0] == EXIT_OK

    def test_most_lps_are_certified(self, monkeypatch):
        # the long-run LPs and the frozen and perturbed short-run LPs, by
        # their frames, and the short-run range requests, certified unless
        # they fall to their own basis
        answered, own = Counter(), []
        real, real_own = lp.solve_stacked, lp._basis_ranges

        def stacked(requests, pool=None):
            outcomes = real(requests, pool)
            for request, answer in zip(requests, outcomes):
                if isinstance(request, lp.RangeRequest):
                    answered["range"] += 1
                else:
                    answered[request._frame, answer.iterations == 0] += 1
            return outcomes

        def basis_ranges(request):
            own.append(request)
            return real_own(request)

        monkeypatch.setattr(lp, "solve_stacked", stacked)
        monkeypatch.setattr(lp, "_basis_ranges", basis_ranges)
        assert run_selftest(seed=42, n=400, out=io.StringIO()) == EXIT_OK
        for frame, per_scenario in ((model._LRMC, 1), (model._SRMC, 2)):
            total = answered[frame, True] + answered[frame, False]
            assert total == per_scenario * 400
            assert answered[frame, True] >= 0.9 * total, (frame, answered)
        assert answered["range"] == 400
        assert len(own) <= 0.15 * 400, len(own)

    @staticmethod
    def _raising(fn, errors):
        """``fn``, except that its ``k``-th call raises ``errors[k]``."""
        calls = [0]

        def wrapped(*args, **kwargs):
            calls[0] += 1
            if calls[0] in errors:
                raise errors[calls[0]]("injected")
            return fn(*args, **kwargs)

        return wrapped

    @pytest.mark.parametrize("lrmc_errors, step_errors, escapes", [
        # scenario 2's short-run step, then scenario 4's long-run solve
        ({5: lp.IterationLimitError}, {3: srmc.SrmcError}, srmc.SrmcError),
        # scenario 1's long-run solve; scenario 2's step never runs
        ({2: lp.IterationLimitError}, {3: srmc.SrmcError}, lp.IterationLimitError),
        # two short-run steps of one chunk, scenarios 2 and 4
        ({}, {3: srmc.SrmcError, 5: lp.IterationLimitError}, srmc.SrmcError),
    ])
    def test_earliest_scenario_error_escapes(self, monkeypatch, lrmc_errors,
                                             step_errors, escapes):
        # as it would scenario by scenario; each short-run step calls
        # default_epsilon once, in scenario order
        monkeypatch.setattr(cli, "solve_lrmc", self._raising(cli.solve_lrmc, lrmc_errors))
        monkeypatch.setattr(srmc, "default_epsilon",
                            self._raising(srmc.default_epsilon, step_errors))
        with pytest.raises(escapes, match="injected"):
            run_selftest(seed=9, n=20, out=io.StringIO())

    @pytest.mark.parametrize("above, code, passed", [(2e-6, 2, 4), (5e-7, EXIT_OK, 5)])
    def test_price_outside_its_interval_fails(self, monkeypatch, capsys, above, code,
                                              passed):
        # the third short-run result to finish has its period-2 interval
        # start ``above`` its resolved price, its right end kept; more than
        # 1e-6 out is a failure
        self.assert_third_moved(monkeypatch, capsys, lambda res: (
            res.intervals[0], (res.resolved[1] + above, res.intervals[1][1])), code, passed)

    @pytest.mark.parametrize("move, code", [
        (lambda hi: hi + 2e-6, 2), (lambda hi: hi + 5e-7, EXIT_OK), (lambda hi: math.inf, 2)],
        ids=["2e-6 off", "5e-7 off", "infinite"])
    def test_interval_off_the_merit_order_fails(self, monkeypatch, capsys, move, code):
        # the third short-run result to finish has the right end of its
        # period-1 interval moved, its price still inside; an end more than
        # lam_match (1e-6) off the merit order's is a failure, and an
        # infinite one unless the merit order's is the same
        self.assert_third_moved(monkeypatch, capsys, lambda res: (
            (res.intervals[0][0], move(res.intervals[0][1])), res.intervals[1]),
            code, 5 - (code == 2))

    @staticmethod
    def assert_third_moved(monkeypatch, capsys, intervals, code, passed):
        """``selftest --seed 9 --n 5`` with the third short-run result to
        finish given ``intervals(result)`` exits ``code`` and passes
        ``passed`` scenarios."""
        real = cli.srmc_step
        done = [0]

        def step(*args, **kwargs):
            res = yield from real(*args, **kwargs)
            done[0] += 1
            if done[0] == 3:
                assert res.intervals == res.merit
                res = dataclasses.replace(res, intervals=intervals(res))
            return res

        monkeypatch.setattr(cli, "srmc_step", step)
        assert main(["selftest", "--seed", "9", "--n", "5"]) == code
        out = capsys.readouterr().out
        assert f"pass {passed}/5," in out
        assert ("FAIL: 1 scenario(s) disagreed" in out) is (code == 2)

    def test_deterministic_output(self):
        a, b = io.StringIO(), io.StringIO()
        run_selftest(seed=7, n=10, out=a)
        run_selftest(seed=7, n=10, out=b)
        assert a.getvalue() == b.getvalue()

    def test_n_zero_rejected(self):
        with pytest.raises(ConfigError):
            run_selftest(seed=1, n=0)


class TestToleranceOverrides:
    """A GENMARGIN_TOL_* override reaches every layer of every verb."""

    # the sweep point whose short-run cost differs from the long-run
    # optimum in the last bits, so a zero gap tolerance rejects istar
    TIGHT_GAP_D2 = 14046.153846153846

    @pytest.fixture
    def override(self, monkeypatch):
        def set_(name, value):
            monkeypatch.setenv(f"GENMARGIN_TOL_{name}", value)
            tolerances.current.cache_clear()
        return set_

    def test_lambda_tolerance_reaches_selftest(self, override):
        out = io.StringIO()
        assert run_selftest(1, 40, out=out) == EXIT_OK
        override("LAMBDA", "1e-300")
        out = io.StringIO()
        assert run_selftest(1, 40, out=out) == 2
        # an exact match fails wherever a price is off in its last bit;
        # draw 28 (everything shed) is certified by an atlas basis whose
        # lam_1 is cl plus one ulp
        assert "pass 31/40" in out.getvalue()

    def test_gap_tolerance_reaches_the_sweeps_short_run_stage(self, tmp_path, override):
        payload = dict(CANONICAL, sweep=[
            {"param": "d2", "from": 100, "to": 14800, "steps": 40}])
        config = load_config(write_config(tmp_path, payload))
        assert all(row[0] != "error" for _, row in sweep_rows(config))
        override("GAP", "1e-300")
        errors = [(values, row) for values, row in sweep_rows(config) if row[0] == "error"]
        assert [values for values, _ in errors] == [(self.TIGHT_GAP_D2,)]
        assert errors[0][1][1].startswith("istar is not an optimal investment plan")

    def test_atlas_does_not_depend_on_the_tolerances(self, tmp_path, monkeypatch, override):
        # the atlas is data: made once, under an override, it is the pool a
        # later sweep at the built-in tolerances tries, and it certifies
        # every LP of that sweep
        payload = dict(CANONICAL, sweep=[{"param": "d2", "from": 100, "to": 14800,
                                          "steps": 40}])
        config = load_config(write_config(tmp_path, payload))
        cli.basis_atlas.cache_clear()
        override("FEAS", "0.5")
        list(sweep_rows(config))
        monkeypatch.delenv("GENMARGIN_TOL_FEAS")
        tolerances.current.cache_clear()
        answers = []
        real = lp.solve_stacked

        def stacked(requests, **kwargs):
            outcomes = real(requests, **kwargs)
            answers.extend(outcomes)
            return outcomes

        monkeypatch.setattr(lp, "solve_stacked", stacked)
        assert all(row[0] != "error" for _, row in sweep_rows(config))
        assert cli.basis_atlas.cache_info().misses == 1
        assert len(answers) == 3 * 40
        assert all(answer.iterations == 0 for answer in answers)

    def test_gap_tolerance_reaches_the_reports_short_run_stage(self, tmp_path, capsys,
                                                               override):
        path = write_config(tmp_path, dict(CANONICAL, d2=self.TIGHT_GAP_D2))
        assert main(["run", path]) == EXIT_OK
        capsys.readouterr()
        override("GAP", "1e-300")
        assert main(["run", path]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(
            "error: istar is not an optimal investment plan")

    @pytest.mark.parametrize("value", ["nan", "-1"])
    @pytest.mark.parametrize("verb", ["run", "sweep", "selftest"])
    def test_malformed_override_fails_every_verb(self, tmp_path, capsys, override,
                                                 verb, value):
        payload = dict(CANONICAL, sweep=[{"param": "d2", "from": 100, "to": 200, "steps": 2}])
        args = ["selftest", "--n", "3"] if verb == "selftest" else [
            verb, write_config(tmp_path, payload)]
        override("FEAS", value)
        assert main(args) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err == (f"error: GENMARGIN_TOL_FEAS must be a finite nonnegative "
                                f"number, got {value!r}\n")
        assert captured.out == ""


class TestDumpTables:
    def test_41_rows(self, capsys):
        assert main(["dump-tables"]) == EXIT_OK
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 42


class TestOutputPath:
    @pytest.mark.parametrize("verb", ["run", "sweep", "dump-tables"])
    def test_unwritable_path_is_a_validation_error(self, tmp_path, capsys, verb):
        # a path in a missing directory is named, not raised as a traceback
        out = tmp_path / "missing" / "out.csv"
        payload = dict(CANONICAL, output={"format": "csv", "path": str(out)},
                       sweep=[{"param": "d2", "from": 100, "to": 200, "steps": 2}])
        if verb == "run":
            del payload["sweep"]
        args = (["dump-tables", "--path", str(out)] if verb == "dump-tables"
                else [verb, write_config(tmp_path, payload)])
        assert main(args) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot write output: ")
        assert str(out) in captured.err and captured.out == ""
        assert not out.parent.exists()
