import bisect
import dataclasses
import hashlib
import io
import json
import math
import sys
from collections import Counter

import numpy as np
import pytest

from genmargin import cli, groups, lp, srmc, tolerances
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


@pytest.fixture
def tableaux(monkeypatch):
    """A list that grows by its problem for every LP standard form (tableau)
    built, alone or as one slice of a stacked solve."""
    built = []

    class Counted(lp._StandardForm):
        def __init__(self, problem):
            built.append(problem)
            super().__init__(problem)

    class CountedStack(lp._StackedForm):
        def __init__(self, problems, *args):
            built.extend(problems)
            super().__init__(problems, *args)

    monkeypatch.setattr(lp, "_StandardForm", Counted)
    monkeypatch.setattr(lp, "_StackedForm", CountedStack)
    return built


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

    @pytest.mark.parametrize("d2, built", [(7000.0, 5), (6000.0, 6)])
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
        # Rows are solved side by side, so each standard form, stacked or
        # not, is charged to the grid row whose step asked for its problem.
        owner, started = {}, []
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
                owner[id(request.problem)] = row
                answer = yield request

        monkeypatch.setattr(cli, "_sweep_row", tagged)
        payload = dict(CANONICAL, sweep=[
            {"param": "d1", "from": 0, "to": 14000, "steps": 8},
            {"param": "d2", "from": 0, "to": 14000, "steps": 8}])
        rows = list(sweep_rows(load_config(write_config(tmp_path, payload))))
        assert all(row[0] != "error" for _, row in rows)
        counts = Counter(owner[id(problem)] for problem in tableaux)
        assert len(rows) == len(started) == len(counts) == 64
        assert max(counts.values()) <= 3, counts

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
            short = compute_srmc(params, lr.decision, lrmc_objective=lr.objective)
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

    def test_at_most_five_tableaux_per_scenario(self, tableaux, monkeypatch):
        # A chunk's short-run LPs are solved side by side after the scalar
        # stage of all its scenarios, so each standard form is charged to
        # the scenario whose short-run step asked for its problem, or else
        # to the scenario drawn last before it was built.
        owner, drawn = {}, []
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
                owner[id(request.problem)] = scenario
                answer = yield request

        monkeypatch.setattr(cli, "random_params", draw)
        monkeypatch.setattr(cli, "srmc_step", tagged)
        n = cli.CHUNK + 8
        assert run_selftest(seed=9, n=n, out=io.StringIO()) == EXIT_OK
        counts = Counter(owner.get(id(problem), bisect.bisect_right(drawn, i) - 1)
                         for i, problem in enumerate(tableaux))
        assert len(drawn) == len(counts) == n
        assert max(counts.values()) <= 5, counts

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

    def test_chunked_run_matches_scenario_by_scenario(self, monkeypatch):
        n = 2 * cli.CHUNK + 6           # two full chunks and a partial one
        chunks = []
        real = cli.run_lockstep

        def lockstep(steps):
            results = real(steps)
            chunks.append(results)
            return results

        monkeypatch.setattr(cli, "run_lockstep", lockstep)
        got = io.StringIO()
        assert run_selftest(seed=11, n=n, out=got) == EXIT_OK

        rng = np.random.default_rng(11)
        failures, gids, want = 0, set(), []
        for _ in range(n):
            params = random_params(rng)
            lr = solve_lrmc(params)
            rep = cross_check(params, lrmc=lr)
            gids.add(rep.gid)
            ok = rep.passed
            if ok:
                short = compute_srmc(params, lr.decision, lrmc_objective=lr.objective)
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
        assert got.getvalue() == (
            f"selftest: seed=11 n={n}\n"
            f"pass {n - failures}/{n}, distinct groups {len(gids)}\n"
            "all checks passed\n")
        assert len(chunks) == 3
        assert [r for results in chunks for r in results] == want

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
        # start ``above`` its resolved price; more than 1e-6 out is a failure
        real = cli.srmc_step
        done = [0]

        def step(*args, **kwargs):
            res = yield from real(*args, **kwargs)
            done[0] += 1
            if done[0] == 3:
                res = dataclasses.replace(res, intervals=(
                    res.intervals[0], (res.resolved[1] + above, math.inf)))
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
        assert "pass 32/40" in out.getvalue()

    def test_gap_tolerance_reaches_the_sweeps_short_run_stage(self, tmp_path, override):
        payload = dict(CANONICAL, sweep=[
            {"param": "d2", "from": 100, "to": 14800, "steps": 40}])
        config = load_config(write_config(tmp_path, payload))
        assert all(row[0] != "error" for _, row in sweep_rows(config))
        override("GAP", "1e-300")
        errors = [(values, row) for values, row in sweep_rows(config) if row[0] == "error"]
        assert [values for values, _ in errors] == [(self.TIGHT_GAP_D2,)]
        assert errors[0][1][1].startswith("istar is not an optimal investment plan")

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
