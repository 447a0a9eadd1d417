"""Output pins: one SHA-256 digest per verb output that must not move.

``run`` (text, json and csv) over 20 ``random_params`` draws of seed 3,
each interior, with ``d1``, ``d2`` or both at 0, and with ``cl`` at each
rung of the cost ladder (``t_sr``, ``t_sf``, ``t_r``, ``t_f``);
``dump-tables``; and ``selftest`` for seeds 7, 9 and 42 at n = 300.  Each
demo's stdout is pinned in ``tests/test_demos.py``.  A change that is
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
from genmargin.sampling import random_params

PINS = {
    "run-text": "640e4660b9f7e82da1b571f2d4dfa2c6f3eda8c82871c26c37bd6c655310579f",
    "run-json": "3e5f4aed3bf82c83660bdef15299765eaa97e2a3c0858125e7bffd44fc3cd52d",
    "run-csv": "4bb950473c7feb26076c4ec3805c05d21c03e3e9e7519e300a2cda65611c6426",
    "dump-tables": "b258e03fadd9eb91f942b81fe9a1ac55689f79d5f3e462ca65127beb3163b594",
    "selftest-7": "daa088a8481bee8415cbc1fbbfe9d23b9669e36bd54e571309be6ba200e8a77e",
    "selftest-9": "af48b212c8386c771bc562873a018ed4157f60bf7b7c79053c45bd7cdf97efe8",
    "selftest-42": "54a0208bad3dd972d382aaba93ce9206407b732bee7d90ae5066727215360537",
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
}


def digests() -> dict:
    return {name: _sha(make()) for name, make in OUTPUTS.items()}


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_output_is_pinned(name):
    assert _sha(OUTPUTS[name]()) == PINS[name]


if __name__ == "__main__":
    for name, digest in digests().items():
        print(f'    "{name}": "{digest}",')
