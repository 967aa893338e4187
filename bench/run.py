"""Benchmark of the bifrost package: one workload per call, each in fresh processes.

Usage, from the root of a source checkout (the package is read from src/):
  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 bench/run.py --quick

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones (``op_ref``, ``setup_s``, ``peak_rss_mb``); with
``--trace 1`` the per-layer ones and the tracing overhead.  The full record,
with the environment it ran in, goes to bench/out/.  ``--quick`` runs every
workload at a tiny size, untraced and traced, with every check, and exits 0
only if all pass.
See bench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOADS = ("grid-cli", "numeric-points", "fock-oracle")

# BLAS may use every core this process may run on, up to two, and no more.
CORES = len(os.sched_getaffinity(0))
BLAS_THREADS = str(min(CORES, 2))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Fresh interpreters started only to time set-up, besides the measuring one.
SETUP_PROBES = 4
# Every run, set-up included, ends within this many seconds.
RUN_LIMIT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    for var in BLAS_VARS:
        env[var] = BLAS_THREADS
    env.pop("BIFROST_THREADS", None)
    return env


def spawn(args: list[str], deadline: float) -> float:
    """Run bench/worker.py; return its set-up time from spawn to READY."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py")] + args
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"worker {' '.join(args)} did not finish in time")
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n{err}")
    ready = [line for line in out.splitlines() if line.startswith("READY ")]
    return float(ready[0].split()[1]) - started


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 size: str = "full", probes: int = SETUP_PROBES) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    os.makedirs(OUT_DIR, exist_ok=True)
    base = ["--workload", workload, "--seed", str(seed), "--size", size]
    setup = [spawn(base + ["--setup-only"], deadline) for _ in range(probes)]
    scratch = os.path.join(OUT_DIR, f"worker-{os.getpid()}.json")
    setup.append(spawn(base + ["--seconds", str(seconds), "--trace", str(trace),
                               "--result", scratch], deadline))
    with open(scratch, "r", encoding="utf-8") as fh:
        worker = json.load(fh)
    os.remove(scratch)

    if trace:
        metrics = worker["per_layer"]
    else:
        metrics = {
            "op_ref": {"value": statistics.median(worker["op_ratios"]), "unit": "ref"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": worker["peak_rss_mb"], "unit": "MB"},
        }
    summary = {
        "correct": not worker["check_failures"],
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": metrics,
    }
    record = dict(summary)
    record.update({
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "size": size,
        "cores": CORES,
        "blas_threads": BLAS_THREADS,
        "python": worker["python"],
        "numpy": worker["numpy"],
        "scipy": worker["scipy"],
        "setup_samples_s": setup,
        "op_s": statistics.median(worker["op_times_s"]) if worker["op_times_s"] else None,
        "op_times_s": worker["op_times_s"],
        "op_ratios": worker["op_ratios"],
        "traced_op_times_s": worker["traced_op_times_s"],
        "measured_s": worker["measured_s"],
        "failures": worker["failures"],
        "check_failures": worker["check_failures"],
    })
    name = f"{workload}-seed{seed}-trace{trace}" + ("-quick" if size == "quick" else "")
    with open(os.path.join(OUT_DIR, name + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for line in worker["failures"] + worker["check_failures"]:
        print(f"{workload}: {line}", file=sys.stderr)
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "bifrost", "__init__.py")):
        print(f"error: no bifrost package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        if args.quick:
            ok = True
            for workload in WORKLOADS:
                for trace in (0, 1):
                    summary = run_workload(workload, args.seed, 0.0, trace, "quick", 1)
                    ok &= summary["correct"] and summary["failed"] == 0
                    print(workload, json.dumps(summary))
            return 0 if ok else 1
        if args.workload is None:
            parser.error("--workload is required")
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, args.trace)))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
