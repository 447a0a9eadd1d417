"""The benchmark's checks can fail: wrong prices, groups and error rows show.

    python3 -m pytest perfbench/test_checks.py
"""

import importlib
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from genmargin import cli, lp, model  # noqa: E402
from genmargin.groups import GROUPS  # noqa: E402

README = dict(ci_r=60.0, cp_r=1.0, m_r=3000.0, ci_f=82.0, cp_f=20.0, m_f=4000.0,
              cl=200.0, d1=2000.0, d2=8000.0)


@pytest.fixture(scope="module")
def regime_rows():
    wl = workloads.RegimeMap(seed=0, n=40)
    rows, _ = wl.rows(workloads.round_of(wl))
    return rows


@pytest.fixture
def ref():
    return reference.Reference()


def test_reference_reproduces_readme_prices(ref):
    z, lam = ref.long_run(README)
    assert lam == pytest.approx((1.0, 102.0))
    assert ref.interval(README, 2) == pytest.approx((102.0, 102.0))


def test_program_rows_pass(regime_rows, ref):
    assert checks.check_rows(regime_rows, ref, GROUPS)[0] == 0


def test_wrong_price_fails(regime_rows, ref):
    for row in regime_rows:
        wrong = row._replace(lrmc=(row.lrmc[0] + 0.5, row.lrmc[1]))
        assert any("lrmc_1" in m for m in checks.check_row(wrong, ref, GROUPS))


def test_wrong_short_run_price_fails(regime_rows, ref):
    row = regime_rows[0]
    wrong = row._replace(srmc=(row.srmc[0] + 0.25, row.srmc[1]))
    assert any("srmc_1" in m for m in checks.check_row(wrong, ref, GROUPS))


def test_wrong_group_fails(regime_rows, ref):
    for row in regime_rows:
        cluster = checks.CLUSTERS[checks.cluster_of(row.params)]
        neighbour = row.gid + 1 if row.gid + 1 in cluster else row.gid - 1
        for gid in (neighbour, (row.gid + 20) % 41 + 1):
            assert checks.check_row(row._replace(gid=gid), ref, GROUPS), (row, gid)


def test_suboptimal_build_fails(regime_rows, ref):
    row = regime_rows[0]
    build = list(row.build)
    build[0] += 1.0                 # one more unit of idle renewable
    msgs = checks.check_row(row._replace(build=tuple(build)), ref, GROUPS)
    assert any("build" in m for m in msgs)


def test_negative_profit_fails(regime_rows, ref):
    row = regime_rows[0]._replace(profit=-1e-3)
    assert any("profit" in m for m in checks.check_row(row, ref, GROUPS))


def test_boundary_price_outside_interval_fails(ref):
    # d2 = d1 + m_r: group 3/4 boundary of the README costs, price unique
    p = dict(README, d1=2000.0, d2=5000.0)
    z, _ = ref.long_run(p)
    row = checks.Row(params=p, gid=3, boundary=True, lrmc=(1.0, 61.0),
                     srmc=(1.0, 1.0), profit=0.0, costs=(z,))
    assert checks.check_row(row, ref, GROUPS) == []
    assert checks.check_row(row._replace(lrmc=(1.0, 70.0)), ref, GROUPS)


def test_error_row_counts_as_failed(tmp_path):
    wl = workloads.Sweep(seed=0, rnd=0, workdir=tmp_path)
    out = workloads.round_of(wl)
    assert wl.failed(out) == 0
    code, text = out[0]
    lines = text.splitlines()
    lines[5] = ",".join(lines[5].split(",")[:2] + ["error", "bad input"] + [""] * 7)
    out[0] = (code, "\n".join(lines) + "\n")
    assert wl.failed(out) == 1
    rows, extra = wl.rows(out)
    assert len(rows) == wl.items - 1 and not extra


def test_selftest_shortfall_and_escaped_errors_count():
    wl = workloads.Selftest(seed=3)
    assert wl.failed(["selftest: seed=3 n=50\npass 47/50, distinct groups 20\n"]) == 3
    assert wl.failed(["raised IterationLimitError: simplex exceeded"]) == wl.items


def _raise_on_call(fn, k):
    """``fn``, except that its ``k``-th call raises IterationLimitError."""
    calls = [0]

    def wrapped(*args, **kwargs):
        calls[0] += 1
        if calls[0] == k:
            raise lp.IterationLimitError("pivot cap hit")
        return fn(*args, **kwargs)

    return wrapped


def test_selftest_rows_leave_out_a_raising_scenario(monkeypatch):
    wl = workloads.Selftest(seed=3, n=6)
    out = workloads.round_of(wl)
    assert wl.failed(out) == 0
    # the replay's second scenario raises where the verb's did not
    monkeypatch.setattr(model, "solve_lrmc", _raise_on_call(model.solve_lrmc, 2))
    rows, extra = wl.rows(out)
    assert len(rows) == 6 - 1
    assert any("passed" in m for m in extra)    # the verb said 6 of 6

    shortfall = [out[0].replace("pass 6/6", "pass 5/6")]
    monkeypatch.setattr(model, "solve_lrmc", _raise_on_call(model.solve_lrmc, 2))
    assert wl.failed(shortfall) == 1
    rows, extra = wl.rows(shortfall)
    assert len(rows) == 5 and extra == []


def test_selftest_round_that_raises_fails_whole(monkeypatch):
    wl = workloads.Selftest(seed=3, n=6)
    monkeypatch.setattr(cli, "solve_lrmc", _raise_on_call(cli.solve_lrmc, 2))
    out = workloads.round_of(wl)
    assert out[0].startswith("raised IterationLimitError")
    assert wl.failed(out) == wl.items
    assert wl.rows(out) == ([], [])


@pytest.mark.parametrize("name", ["selftest", "sweep", "regime-map"])
def test_rounds_draw_fresh_inputs(name, tmp_path):
    def inputs(wl):
        return getattr(wl, "verb_seed", None) or getattr(wl, "configs", None) or wl.inputs

    first = inputs(workloads.make(name, 5, 0, tmp_path))
    assert first == inputs(workloads.make(name, 5, 0, tmp_path))
    assert first != inputs(workloads.make(name, 5, 1, tmp_path))
    assert first != inputs(workloads.make(name, 6, 0, tmp_path))


def _originals():
    return {f"{layer}.{fname}": getattr(importlib.import_module(f"genmargin.{layer}"), fname)
            for layer, names in tracing.TRACED.items() for fname in names}


def _profiled_calls(fns, run):
    """Calls of each function in ``fns`` while ``run()`` runs, counted by
    the interpreter's profile hook on the function's code object."""
    codes = {fn.__code__: name for name, fn in fns.items()}
    seen = Counter()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            seen[codes[frame.f_code]] += 1

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return seen


def _traced_calls(wl):
    originals = _originals()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        seen = _profiled_calls(originals, lambda: workloads.round_of(wl))
    finally:
        tracer.uninstall()
    return tracer, seen


@pytest.mark.parametrize("name", ["selftest", "regime-map"])
def test_tracer_sees_every_call(name, monkeypatch):
    wl = workloads.Selftest(seed=7, n=4) if name == "selftest" else workloads.RegimeMap(7, n=50)
    tracer, seen = _traced_calls(wl)
    for fname, span in tracer.spans.items():
        assert span.calls == seen[fname], fname
    assert tracer.spans["groups.classify"].calls > 0
    if name == "regime-map":
        assert tracer.spans["lp.solve_lp"].calls == 0
        return

    # a wrapper on the defining modules alone misses the import sites
    home = Counter()
    for mod, fname in ((lp, "solve_lp"), (importlib.import_module("genmargin.groups"),
                                          "classify")):
        orig = getattr(mod, fname)

        def counted(*args, _orig=orig, _name=fname, **kwargs):
            home[_name] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(mod, fname, counted)
    workloads.round_of(wl)
    assert home["solve_lp"] < seen["lp.solve_lp"]
    assert home["classify"] < seen["groups.classify"]
