"""Spans around genmargin's public functions, for the traced run only.

``Tracer.install()`` replaces each traced function with a timing wrapper on
every genmargin module that binds it by name (``solve_lp`` is imported into
``model``, ``srmc`` and ``verify``; ``classify`` into ``sampling``,
``srmc``, ``verify`` and ``cli``), so calls through any import site are
seen.  Spans nest on a stack: a span's self time is its duration less the
time its child spans cover.  Spans are aggregated in memory per name.

Times are averaged over every traced round.  Counts (calls, pivots, draws)
depend on the inputs, and every round draws new ones, so they are taken
from the first round alone (``mark_counts``): a run of any length then
reports the same counts for the same seed.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

#: traced functions by layer (the package module that defines them)
TRACED = {
    "lp": ("solve_lp", "dual_value_range"),
    "model": ("build_lrmc_primal", "build_lrmc_dual", "build_srmc_primal",
              "build_srmc_dual", "solve_lrmc"),
    "groups": ("classify", "analytic_solution"),
    "pricing": ("cost_recovery", "srmc_profile"),
    "srmc": ("compute_srmc",),
    "verify": ("cross_check",),
    "sampling": ("random_params",),
    "cli": ("load_config", "run_sweep", "run_selftest"),
}
BUILDERS = ("model.build_lrmc_primal", "model.build_lrmc_dual",
            "model.build_srmc_primal", "model.build_srmc_dual")


class Span:
    __slots__ = ("calls", "total", "self_time", "pivots")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.pivots = 0


class Tracer:
    def __init__(self):
        self.spans = {}
        self.nested = Counter()     # (parent span, child span) -> calls
        self._stack = []            # [name, time covered by children]
        self._undo = []
        self._counted = None        # (items, spans' (calls, pivots), nested)

    def _wrap(self, name, fn):
        span = self.spans.setdefault(name, Span())
        stack, nested, clock = self._stack, self.nested, time.perf_counter
        count_pivots = name == "lp.solve_lp"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                span.calls += 1
                span.total += dt
                span.self_time += dt - frame[1]
                nested[parent, name] += 1
            if count_pivots:
                span.pivots += out.iterations
            return out

        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "genmargin" or n.startswith("genmargin."))]
        for layer, names in TRACED.items():
            home = importlib.import_module(f"genmargin.{layer}")
            for fname in names:
                orig = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)
                            self._undo.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._undo):
            setattr(mod, attr, orig)
        self._undo.clear()

    def mark_counts(self, items: int):
        """Keep the counts so far, over ``items`` items, for the metrics."""
        self._counted = (items, {n: (sp.calls, sp.pivots) for n, sp in self.spans.items()},
                         Counter(self.nested))

    def layer_metrics(self, items: int) -> dict:
        """Per-layer metrics per item (``items`` items were processed);
        counts come from ``mark_counts``."""
        s = self.spans
        counted_items, counts, nested = self._counted

        def calls_per_item(n):
            return counts[n][0] / counted_items

        def us_per_call(n, attr="total"):
            return 1e6 * getattr(s[n], attr) / s[n].calls if s[n].calls else 0.0

        solve = s["lp.solve_lp"]
        solves, pivots = counts["lp.solve_lp"]
        cli_self = sum(s[f"cli.{n}"].self_time for n in TRACED["cli"])
        draws = counts["sampling.random_params"][0]
        return {
            "lp.solve_lp.calls_per_item": (calls_per_item("lp.solve_lp"), "calls/item"),
            "lp.solve_lp.us_per_call": (us_per_call("lp.solve_lp"), "us"),
            "lp.solve_lp.pivots_per_call": (
                pivots / solves if solves else 0.0, "pivots/call"),
            "lp.solve_lp.ms_per_item": (1e3 * solve.total / items, "ms/item"),
            "lp.dual_value_range.calls_per_item": (
                calls_per_item("lp.dual_value_range"), "calls/item"),
            "lp.dual_value_range.us_per_call": (us_per_call("lp.dual_value_range"), "us"),
            "model.solve_lrmc.calls_per_item": (calls_per_item("model.solve_lrmc"), "calls/item"),
            "model.solve_lrmc.us_per_call": (us_per_call("model.solve_lrmc"), "us"),
            "model.build.us_per_item": (
                1e6 * sum(s[n].total for n in BUILDERS) / items, "us/item"),
            "srmc.compute_srmc.us_per_call": (us_per_call("srmc.compute_srmc"), "us"),
            "srmc.compute_srmc.self_us_per_call": (
                us_per_call("srmc.compute_srmc", "self_time"), "us"),
            "verify.cross_check.us_per_call": (us_per_call("verify.cross_check"), "us"),
            "verify.cross_check.self_us_per_call": (
                us_per_call("verify.cross_check", "self_time"), "us"),
            "groups.classify.calls_per_item": (calls_per_item("groups.classify"), "calls/item"),
            "groups.classify.us_per_call": (us_per_call("groups.classify"), "us"),
            "groups.analytic_solution.calls_per_item": (
                calls_per_item("groups.analytic_solution"), "calls/item"),
            "groups.analytic_solution.us_per_call": (
                us_per_call("groups.analytic_solution"), "us"),
            "pricing.cost_recovery.us_per_call": (us_per_call("pricing.cost_recovery"), "us"),
            "pricing.srmc_profile.us_per_call": (us_per_call("pricing.srmc_profile"), "us"),
            "sampling.random_params.us_per_call": (
                us_per_call("sampling.random_params"), "us"),
            "sampling.classify_per_draw": (
                nested["sampling.random_params", "groups.classify"] / draws
                if draws else 0.0, "ratio"),
            "cli.self_ms_per_item": (1e3 * cli_self / items, "ms/item"),
        }
