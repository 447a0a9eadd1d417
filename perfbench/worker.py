"""One workload in one process: set up, run timed rounds, check the outputs.

Started by ``run.py`` with a pinned environment; prints one JSON line.

    worker.py --workload W --seed N --seconds S --trace 0|1 [--setup-only]

Set-up is the import of genmargin plus making the first round's inputs.
The timed part runs whole rounds in a closed loop until ``--seconds`` have
passed; each later round's inputs are made, untimed, just before it.  The
first and the last round are checked.  Times are scaled by a calibration
loop run beside them (see README, "Timing").  Peak resident memory is read
before the checks import scipy.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: calibrate()'s time on the reference machine; see README, "Timing"
CAL_REF_S = 1e-3


def calibrate() -> float:
    """Seconds taken by a fixed piece of work of the program's own kind:
    small dense numpy row updates mixed with Python arithmetic."""
    import numpy as np      # already loaded by genmargin; not set-up time

    t = time.perf_counter()
    a = np.arange(1.0, 221.0).reshape(10, 22)
    acc = 0.0
    for i in range(200):
        a -= np.outer(a[:, i % 22] * 1e-9, a[i % 10])
        acc += float(a[i % 10, 0]) * 1.5 + (i % 7)
    return time.perf_counter() - t


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import genmargin
    if not Path(genmargin.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"genmargin imported from {genmargin.__file__}, not {SRC}")
    sys.path.insert(0, str(HERE))
    import workloads

    (HERE / "work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=HERE / "work"))
    try:
        wl = workloads.make(args.workload, args.seed, 0, workdir)
        setup_s = time.perf_counter() - t0
        setup_s *= CAL_REF_S / statistics.median(calibrate() for _ in range(5))
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return measure(wl, workloads, args, workdir, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(wl, workloads, args, workdir, setup_s) -> int:
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    # Each unit call's time is divided by the mean of the calibrate() times
    # just before and just after it; a round's scaled time is their sum.
    scaled, raw = [], []
    rounds, failed, first, last = 0, 0, None, None
    clock = time.perf_counter
    deadline = clock() + args.seconds
    cal = calibrate()
    while True:
        if rounds:
            wl = workloads.make(args.workload, args.seed, rounds, workdir)
            cal = calibrate()
        out, round_scaled, round_raw = [], 0.0, 0.0
        for call in wl.units:
            t = clock()
            out.append(call())
            dt = clock() - t
            cal_after = calibrate()
            round_scaled += dt / (0.5 * (cal + cal_after))
            round_raw += dt
            cal = cal_after
        scaled.append(round_scaled)
        raw.append(round_raw)
        rounds += 1
        failed += wl.failed(out)
        last = (wl, out)
        if first is None:
            first = last
            if tracer is not None:
                tracer.mark_counts(wl.items)
        if clock() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
    rate = wl.items / (CAL_REF_S * statistics.median(scaled))

    import checks
    import reference
    from genmargin.groups import GROUPS

    ref, n_bad, n_rows, problems = reference.Reference(), 0, 0, []
    for checked, out in [first] if last is first else [first, last]:
        rows, extra = checked.rows(out)
        bad, msgs = checks.check_rows(rows, ref, GROUPS)
        n_bad, n_rows, problems = n_bad + bad, n_rows + len(rows), problems + extra + msgs

    if tracer is None:
        metrics = {"items_per_s": (rate, "items/s"), "peak_rss_mb": (peak_rss_mb, "MB")}
    else:
        metrics = tracer.layer_metrics(wl.items * rounds)
        metrics["trace.items_per_s"] = (rate, "items/s")
    print(json.dumps({
        "correct": n_bad == 0 and not problems,
        "attempted": wl.items * rounds,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "setup_s": setup_s,
        "rounds": rounds,
        "unscaled_items_per_s": wl.items / statistics.median(raw),
        "checked_rows": n_rows,
        "problems": problems,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
