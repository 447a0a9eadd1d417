"""Output pins: one SHA-256 digest per verb output that must not move.

``run`` (text, json and csv) over 20 ``random_params`` draws of seed 3,
each interior, with ``d1``, ``d2`` or both at 0, and with ``cl`` at each
rung of the cost ladder (``t_sr``, ``t_sf``, ``t_r``, ``t_f``);
``dump-tables``; ``selftest`` for seeds 7, 9 and 42 at n = 300; and
``sweep`` over five 11 x 11 ``d1 x d2`` grids at integer costs, one per
loadshed band (:func:`band_grids`), and over a ``cl x cp_f`` grid at the
README costs whose ``error`` rows carry the parameter checks' messages
(:func:`cost_grid`).  Below the verbs, the raw outcome of every LP of a
fixed set (:func:`pinned_lps`) is pinned as ``solve_lp`` gives it and as
``solve_stacked`` gives it without a pool and with the basis atlas: a
last-bit change in the simplex shows there before any printed digit moves.
Each demo's stdout is pinned in ``tests/test_demos.py``.  A change that is
meant to move one of these outputs says so and re-pins it with the
digests that :func:`digests` prints (``python tests/test_pins.py``).
"""

import dataclasses
import hashlib
import io

import numpy as np
import pytest

from genmargin import cli, groups
from genmargin.groups import table_csv
from genmargin.lp import solve_lp, solve_stacked
from genmargin.model import SystemParams, build_lrmc_dual, build_srmc_primal, lrmc_step, solve_lrmc
from genmargin.sampling import random_params
from genmargin.srmc import default_epsilon

from test_shared_phase import random_lps, scenarios

PINS = {
    "run-text": "640e4660b9f7e82da1b571f2d4dfa2c6f3eda8c82871c26c37bd6c655310579f",
    "run-json": "06ba401edd419a764a8a9ca8aadd0fc0a1a7673c9e8531a28287bccbcfa908b2",
    "run-csv": "943036946a7aed0ee52d4ad574abc7aba8520c1945baeb0415ac16d4e618f1f2",
    "dump-tables": "b258e03fadd9eb91f942b81fe9a1ac55689f79d5f3e462ca65127beb3163b594",
    "selftest-7": "daa088a8481bee8415cbc1fbbfe9d23b9669e36bd54e571309be6ba200e8a77e",
    "selftest-9": "af48b212c8386c771bc562873a018ed4157f60bf7b7c79053c45bd7cdf97efe8",
    "selftest-42": "54a0208bad3dd972d382aaba93ce9206407b732bee7d90ae5066727215360537",
    "sweep-bands": "1e32df09443bff2aad961fe0cceb23bc5153af4ff66e6686966b78f5155ac390",
    "sweep-cost": "e2ea306bbe880055f5a7711b2786ce0c72aa61349a7038a856a6a64428d5fbb2",
    "lp-solve": "bc8cb7132d39daeafe9a8ea8e9616dd800ecb813f82ba5ac59ee3e82250b051c",
    "lp-stacked": "bc8cb7132d39daeafe9a8ea8e9616dd800ecb813f82ba5ac59ee3e82250b051c",
    "lp-atlas": "a3de05203d1219085b04e6e759419c46324b802fe37c656fd96c9d455ec0ede6",
}


def run_scenarios(n=20):
    """Each of ``n`` draws of seed 3, then its zero-demand and rung-tie variants."""
    rng = np.random.default_rng(3)
    out = []
    for _ in range(n):
        params = random_params(rng)
        out += [params] + [dataclasses.replace(params, **zero) for zero in
                           (dict(d1=0.0), dict(d2=0.0), dict(d1=0.0, d2=0.0))]
        out += [dataclasses.replace(params, cl=rung) for rung in groups._values(params)[9:]]
    return out


def band_grids(seed=29):
    """Five ``sweep`` configs of seed ``seed``, one per loadshed band (below
    ``t_sr``, between each pair of ladder rungs, above ``t_f``): integer
    costs on a strict ladder, integer caps, and an 11 x 11 ``d1 x d2`` grid
    from zero demand to twice the caps, so that most capacity thresholds are
    grid points."""
    rng = np.random.default_rng(seed)
    out = []
    for band in range(5):
        while True:
            ci_r, cp_r = int(rng.integers(10, 101)), int(rng.integers(1, 21))
            ci_f, cp_f = int(rng.integers(ci_r + 1, 241)), int(rng.integers(cp_r + 1, 51))
            ladder = (ci_r / 2 + cp_r, ci_f / 2 + cp_f, ci_r + cp_r, ci_f + cp_f)
            if ladder[0] < ladder[1] < ladder[2] < ladder[3]:
                break
        edges = (0.0, *ladder, 1.5 * ladder[-1])
        cl = round(edges[band] + (edges[band + 1] - edges[band]) * rng.uniform(0.2, 0.8), 3)
        unit = 60 * int(rng.integers(1, 41))
        a = int(rng.integers(1, 5))
        params = SystemParams.from_values(ci_r, cp_r, a * unit, ci_f, cp_f, (5 - a) * unit,
                                          cl, 0, 0)
        grid = [cli.SweepBlock(name, 0.0, 10.0 * unit, 11) for name in ("d1", "d2")]
        out.append(cli.ScenarioConfig(params, tuple(grid), "csv", ""))
    return out


def cost_grid():
    """The README scenario with ``cl`` over 10-250 and ``cp_f`` over 0-24:
    rows with ``cp_f <= cp_r`` fail ``SystemParams``' checks and rows with
    ``cp_f > 20`` the group table's cost ladder, each an ``error`` row."""
    params = SystemParams.from_values(60, 1, 3000, 82, 20, 4000, 200, 2000, 8000)
    grid = (cli.SweepBlock("cl", 10.0, 250.0, 13), cli.SweepBlock("cp_f", 0.0, 24.0, 13))
    return [cli.ScenarioConfig(params, grid, "csv", "")]


def pinned_lps():
    """The four model LP kinds at each of ``test_shared_phase.scenarios()``
    (the long-run primal, its explicit dual, and the short-run primal
    frozen at the long-run build, unperturbed and perturbed), then the
    random LPs of seeds 11 and 12, some infeasible and some unbounded."""
    out = []
    for params in scenarios():
        istar = solve_lrmc(params).decision
        out += [next(lrmc_step(params)), build_lrmc_dual(params),
                build_srmc_primal(params, istar),
                build_srmc_primal(params, istar, epsilon=default_epsilon(params))]
    return out + random_lps() + random_lps(seed=12)


def _lp_text(outcomes) -> str:
    """Status, pivots, basis and objective of each outcome, with the bytes
    of its ``x``, duals and reduced costs in hex (an error: its type and
    message)."""
    lines = []
    for s in outcomes:
        if isinstance(s, Exception):
            lines.append(f"{type(s).__name__}: {s}")
            continue
        arrays = [a.tobytes().hex() if a is not None else "-"
                  for a in (s.x, s.duals, s.reduced_costs)]
        lines.append(" ".join([s.status, str(s.iterations), ",".join(s.basis),
                               repr(s.objective), *arrays]))
    return "\n".join(lines) + "\n"


def _sweep_text(configs) -> str:
    parts = []
    for config in configs:
        code, text = cli.run_sweep(config)
        parts.append(f"exit {code}\n{text}")
    return "".join(parts)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run_text(fmt: str) -> str:
    """Every scenario's ``run`` exit code and report in ``fmt``, in order."""
    parts = []
    for params in run_scenarios():
        code, text = cli.run_scenario(cli.ScenarioConfig(params, (), fmt, ""))
        parts.append(f"exit {code}\n{text}")
    return "".join(parts)


def _selftest_text(seed: int) -> str:
    out = io.StringIO()
    code = cli.run_selftest(seed, 300, out=out)
    return f"exit {code}\n{out.getvalue()}"


OUTPUTS = {
    "run-text": lambda: _run_text("text"),
    "run-json": lambda: _run_text("json"),
    "run-csv": lambda: _run_text("csv"),
    "dump-tables": table_csv,
    "selftest-7": lambda: _selftest_text(7),
    "selftest-9": lambda: _selftest_text(9),
    "selftest-42": lambda: _selftest_text(42),
    "sweep-bands": lambda: _sweep_text(band_grids()),
    "sweep-cost": lambda: _sweep_text(cost_grid()),
    "lp-solve": lambda: _lp_text(map(solve_lp, pinned_lps())),
    "lp-stacked": lambda: _lp_text(solve_stacked(pinned_lps())),
    "lp-atlas": lambda: _lp_text(solve_stacked(pinned_lps(), pool=cli.basis_atlas())),
}


def digests() -> dict:
    return {name: _sha(make()) for name, make in OUTPUTS.items()}


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_output_is_pinned(name):
    assert _sha(OUTPUTS[name]()) == PINS[name]


if __name__ == "__main__":
    for name, digest in digests().items():
        print(f'    "{name}": "{digest}",')
