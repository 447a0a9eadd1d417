"""Exact cost ties: every verb freezes the closed form's build.

Where the loadshed cost equals a rung of the cost ladder (``t_sr``,
``t_sf``, ``t_r`` or ``t_f``), shedding a margin costs what serving it
does, so several builds are optimal, and the short-run price depends on
which one is frozen: the operating cost if the build serves the margin,
``cl`` if it sheds it.  ``run``, ``sweep`` and ``selftest`` all freeze the
closed form's build (``analytic.decision``), the one a report prints and
reads its rules against.  So the resolved prices follow the rules, and do
not depend on whether the long-run LP was pivoted or certified from the
basis atlas.
"""

import dataclasses
import io

import numpy as np
import pytest

from genmargin import cli, groups
from genmargin.sampling import random_params


def rung_ties(n):
    """``cl`` set to each ladder rung of ``n`` ``random_params`` draws of seed 3."""
    rng = np.random.default_rng(3)
    out = []
    for _ in range(n):
        params = random_params(rng)
        out += [dataclasses.replace(params, cl=rung) for rung in groups._values(params)[9:]]
    return out


TIES = rung_ties(150)


@pytest.fixture(scope="module")
def run_srmc():
    """The ``compute_srmc`` result of the ``run`` report at each tie."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        real = cli.compute_srmc

        def compute_srmc(*args, **kwargs):
            seen.append(real(*args, **kwargs))
            return seen[-1]

        mp.setattr(cli, "compute_srmc", compute_srmc)
        for params in TIES:
            rep = cli._scenario(params)[0]
            assert rep["srmc"]["resolved"] == list(seen[-1].resolved)
    assert len(seen) == len(TIES)
    return seen


def test_run_prices_follow_the_rules(run_srmc):
    broken = [params for params, srmc in zip(TIES, run_srmc)
              if not cli._rules_hold(params, srmc)]
    assert not broken, f"{len(broken)} of {len(TIES)}, first {broken[0]}"


def test_selftest_resolves_the_run_prices(monkeypatch, run_srmc):
    # selftest's pooled short-run stage, fed the ties as its draws
    draws = iter(TIES)
    monkeypatch.setattr(cli, "random_params", lambda rng: next(draws))
    pooled = []
    real = cli.run_lockstep

    def lockstep(steps, pool):
        results = real(steps, pool)
        pooled.extend(results)
        return results

    monkeypatch.setattr(cli, "run_lockstep", lockstep)
    out = io.StringIO()
    assert cli.run_selftest(0, len(TIES), out=out) == cli.EXIT_OK
    assert f"pass {len(TIES)}/{len(TIES)}," in out.getvalue()
    assert len(pooled) == len(TIES)
    differ = [params for params, got, want in zip(TIES, pooled, run_srmc)
              if got.resolved != want.resolved]
    assert not differ, f"{len(differ)} of {len(TIES)}, first {differ[0]}"


def test_sweep_prints_the_run_prices(run_srmc):
    # a two-row sweep of d1 whose first row is the tie itself
    differ = []
    for params, want in zip(TIES, run_srmc):
        block = cli.SweepBlock("d1", params.d1, params.d1 + 1.0, 2)
        config = cli.ScenarioConfig(params, (block,), "csv", "")
        (values, row), _ = cli.sweep_rows(config)
        assert values == (params.d1,)
        if row[4:6] != want.resolved:
            differ.append(params)
    assert not differ, f"{len(differ)} of {len(TIES)}, first {differ[0]}"
