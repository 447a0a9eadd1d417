"""Numerical tolerances used across the package.

Most of them are absolute, so they hold only on the magnitudes they were
checked on: capacities and demands up to a few 1e4 and unit costs from
1e-2 to a few hundred (``tests/test_scaling.py``), money totals up to
~1e8.  Past that they are not unit-free: with every quantity scaled by
1e5 (or 1e6), ``cross_check`` reports a false ``slackness`` failure on 31
(63) of 300 ``random_params`` draws although the prices are right.
ROADMAP item 5 (unit-free numerics) is the fix.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, fields


@dataclass(frozen=True)
class Tolerances:
    feas: float = 1e-9        # primal/dual feasibility residuals (absolute)
    gap: float = 1e-8         # primal-dual objective gap (relative)
    deg: float = 1e-9         # basic variable counted as "at zero"
    bound: float = 1e-9       # classification boundary margin (relative)
    money: float = 1e-6       # profit comparisons (absolute)
    slackness: float = 1e-7   # normalized complementary-slackness residual
    lam_match: float = 1e-6   # analytic-vs-LP marginal price agreement


_ENV_PREFIX = "GENMARGIN_TOL_"
_ENV_NAMES = {
    "feas": "FEAS",
    "gap": "GAP",
    "deg": "DEG",
    "bound": "BOUND",
    "money": "MONEY",
    "slackness": "CS",
    "lam_match": "LAMBDA",
}


def from_env(environ=None) -> Tolerances:
    """Build a Tolerances set; GENMARGIN_TOL_* overrides must be finite and >= 0."""
    environ = os.environ if environ is None else environ
    overrides = {}
    for f in fields(Tolerances):
        name = _ENV_PREFIX + _ENV_NAMES[f.name]
        raw = environ.get(name)
        if raw is not None:
            try:
                overrides[f.name] = value = float(raw)
            except ValueError:
                value = math.nan
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be a finite nonnegative number, got {raw!r}")
    return Tolerances(**overrides)


@functools.cache
def current() -> Tolerances:
    """The tolerances every layer reads: :func:`from_env` at the first call,
    not at import, so that a malformed override raises where it is reported."""
    return from_env()
