"""One workload run in a fresh interpreter: set up, measure, check.

Usage:
  python3 bench/worker.py --workload NAME --seed N --size full|quick --setup-only
  python3 bench/worker.py --workload NAME --seed N --size full|quick \
      --seconds S --trace 0|1 --result PATH

Both forms print ``READY <time.monotonic()>`` once ``bifrost`` and
``bifrost.cli`` are imported and the workload's inputs are built; the parent
subtracts its own clock reading at spawn to get the set-up time.  The second
form then runs operations one at a time (a closed loop with one caller)
until ``S`` seconds have passed, checks every output, and writes its figures
to PATH as JSON.  With ``--trace 1`` operations alternate untraced and
traced on the same input, so the traced ones give the per-layer totals and
the pairs give the tracing overhead.

Before the first operation and after each one the worker times the
workload's reference kernel, a fixed computation of the same kind that uses
no code of the package.  A virtual machine on a shared host can change speed
by 2x between runs and within one, and the kernels slow with it, so each
operation is also reported as its wall time over the mean of the two kernel
times beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

_t0 = time.perf_counter()
import bifrost  # noqa: E402,F401
import bifrost.cli  # noqa: E402,F401

IMPORT_S = time.perf_counter() - _t0

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from workloads import PER_LAYER, WORKLOADS  # noqa: E402


def measure(workload, seconds: float, trace: bool) -> dict:
    outputs: list = []
    failures: list[str] = []
    times, traced_times, ratios = [], [], []
    totals: dict = {}
    attempted = 0
    start = time.perf_counter()
    ref_before = workload.reference()
    while True:
        traced = trace and attempted % 2 == 1
        index = attempted // 2 if trace else attempted
        attempted += 1
        try:
            elapsed, output, op_totals = workload.run(index, traced)
        except Exception as exc:  # an operation that fails is counted, not fatal
            failures.append(f"{type(exc).__name__}: {exc}")
            output = None
        ref_after = workload.reference()
        if output is not None:
            workload.collect(outputs, output)
            if traced:
                traced_times.append(elapsed)
                for key, value in op_totals.items():
                    totals[key] = totals.get(key, 0) + value
            else:
                times.append(elapsed)
                ratios.append(2.0 * elapsed / (ref_before + ref_after))
        ref_before = ref_after
        done = time.perf_counter() - start >= seconds
        if done and not (trace and attempted % 2 == 1):
            break
    return {
        "attempted": attempted,
        "failures": failures,
        "outputs": outputs,
        "times": times,
        "traced_times": traced_times,
        "ratios": ratios,
        "totals": totals,
        "elapsed": time.perf_counter() - start,
    }


def layer_metrics(workload, run: dict) -> dict:
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics["cli.import_s"] = IMPORT_S
    if run["traced_times"]:
        metrics.update(workload.trace_metrics(run["totals"], len(run["traced_times"])))
        if run["times"]:
            metrics["trace.overhead_s"] = (statistics.median(run["traced_times"])
                                           - statistics.median(run["times"]))
    return {name: {"value": value, "unit": PER_LAYER[name]} for name, value in metrics.items()}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full", choices=("full", "quick"))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--result", default="")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed, args.size)
    print(f"READY {time.monotonic()!r}", flush=True)
    if args.setup_only:
        return 0

    run = measure(workload, args.seconds, bool(args.trace))
    peak_kb = workload.peak_rss_kb()
    check_failures = workload.check(run["outputs"]) if run["outputs"] else []
    result = {
        "attempted": run["attempted"],
        "failed": len(run["failures"]),
        "failures": run["failures"],
        "check_failures": check_failures,
        "op_times_s": run["times"],
        "op_ratios": run["ratios"],
        "traced_op_times_s": run["traced_times"],
        "measured_s": run["elapsed"],
        "peak_rss_mb": peak_kb / 1024.0,
        "per_layer": layer_metrics(workload, run) if args.trace else {},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
