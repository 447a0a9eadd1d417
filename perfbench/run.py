#!/usr/bin/env python3
"""genmargin benchmark: run one workload and print its result as JSON.

    python3 perfbench/run.py --workload selftest --seed 1 --seconds 25 --trace 0

Workloads: selftest, sweep, regime-map (see perfbench/README.md).  With
``--trace 0`` the last line carries the end-to-end metrics (items_per_s,
setup_s, peak_rss_mb); with ``--trace 1`` it carries the per-layer metrics
of a traced run.  Run from the root of a checkout: the package is imported
from its ``src/`` directory, never from an installed copy.

Every workload runs in fresh single-threaded child processes with the
GENMARGIN_TOL_* overrides removed and BLAS/OpenMP pinned to one thread.
Set-up time is the median of the measuring process's own set-up and of
SETUP_PROBES fresh processes before it and as many after it (one discarded
warm-up process runs first), so that a slow spell of the host during a
few probes does not set it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("selftest", "sweep", "regime-map")
#: set-up probes run before and again after the measured run
SETUP_PROBES = 4
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
#: seconds a child may take beyond the measured time (set-up and checks)
CHILD_SLACK = 90


class BenchError(RuntimeError):
    pass


def pinned_env():
    """(environment for the children, names of the variables removed)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("GENMARGIN_TOL_")}
    removed = sorted(set(os.environ) - set(env))
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env, removed


def child(argv, env, timeout):
    """Run worker.py to completion and return its JSON line."""
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *argv],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {argv} exceeded {timeout} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {argv} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "genmargin" / "__init__.py").is_file():
        sys.stderr.write(f"error: no genmargin package under {SRC}\n")
        return 2
    env, removed = pinned_env()
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    probe = base + ["--seconds", "0", "--trace", "0", "--setup-only"]
    try:
        setups = []
        if not args.trace:      # one warm-up probe, discarded, then probes
            child(probe, env, CHILD_SLACK)
            setups += [child(probe, env, CHILD_SLACK)["setup_s"] for _ in range(SETUP_PROBES)]
        res = child(base + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                    env, args.seconds + CHILD_SLACK)
        if not args.trace:      # ... on both sides of the measured run
            setups.append(res["setup_s"])
            setups += [child(probe, env, CHILD_SLACK)["setup_s"] for _ in range(SETUP_PROBES)]
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1

    metrics = res["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    for msg in res["problems"]:
        sys.stderr.write(f"check failed: {msg}\n")
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "env_removed": removed, "threads_pinned": THREAD_VARS,
                      "rounds": res["rounds"], "checked_rows": res["checked_rows"],
                      "unscaled_items_per_s": res["unscaled_items_per_s"],
                      "setup_probes_s": setups}))
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
