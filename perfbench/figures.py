#!/usr/bin/env python3
"""Remake the reference figures in perfbench/README.md.

    python3 perfbench/figures.py --seeds 1-10 --trace 0
    python3 perfbench/figures.py --seeds 1-3 --trace 1

Runs ``run.py`` once per workload and seed, one run at a time, for the
``run_seconds`` of BENCHMARK.json, and prints
per metric the median of the runs, their quartiles and the spread
(interquartile range over median) as a markdown table.  Each run's own
result line goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402

SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    print("| workload | metric | unit | median | q1 | q3 | spread | runs | failed share |")
    print("|---|---|---|---|---|---|---|---|---|")
    ok = True
    for wl in WORKLOADS:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(seed),
                 "--seconds", str(SECONDS), "--trace", str(args.trace)],
                cwd=HERE.parent, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            sys.stderr.write(f"{wl} seed {seed}: {json.dumps(res)}\n")
            ok = ok and res["correct"]
            runs.append(res)
        shares = ", ".join(f"{v:.6g}" for v in sorted({r["failed"] / r["attempted"] for r in runs}))
        for name, m in runs[0]["metrics"].items():
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med,) * 3
            spread = (q3 - q1) / med if med else 0.0
            print(f"| {wl} | {name} | {m['unit']} | {med:.4g} | {q1:.4g} | {q3:.4g} | "
                  f"{spread:.3f} | {len(vals)} | {shares} |",
                  flush=True)
    if not ok:
        sys.stderr.write("some run reported correct=false\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
