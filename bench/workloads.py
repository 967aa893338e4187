"""The benchmark's workloads: seeded inputs, one timed operation, output checks.

Each workload builds its inputs from the seed in its constructor (that is
part of set-up time), runs one operation per ``run`` call and returns the
operation's wall time, its output and, when traced, the additive per-layer
totals of that operation.  ``check`` compares collected outputs with a
computation made apart from the timed code path and returns one message per
failed check, each starting with the check's name.

Every call into the package goes through a module attribute
(``protocols.bifrequency_received_state``), so the tracer's wrappers see it.

``reference`` times a fixed computation of the same kind as the workload's
operation that runs no code of the package: the worker divides operation
times by it, so that a host that changes speed moves both alike.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import os
import resource
import subprocess
import sys
import time

import numpy as np

from tracer import Tracer

# The package re-exports a function named ``sld``, so ``from bifrost import
# sld`` would not give the module.
cli, fock, gaussian, protocols, qfi, sld, validate = (
    importlib.import_module(f"bifrost.{name}")
    for name in ("cli", "fock", "gaussian", "protocols", "qfi", "sld", "validate")
)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

# Tolerances are those of the repository's tests for the same comparisons.
CLOSED_FORM_RTOL = 1e-6
ORACLE_RTOL = 1e-3
SLD_RESIDUAL_TOL = 1e-3
SLD_VARIANCE_TOL = 1e-3
SLD_MEAN_TOL = 1e-4
MOMENTS_TOL = 1e-6

# Every per-layer metric, printed on every workload: the layers a workload
# does not reach read 0.
PER_LAYER = {
    "cli.import_s": "s",
    "cli.grid_main_s": "s",
    "cli.grid_self_s": "s",
    "protocols.advantage_s": "s",
    "protocols.advantage_calls": "count",
    "protocols.family_eval_s": "s",
    "protocols.family_evals_per_point": "count",
    "gaussian.calls_per_eval": "count",
    "gaussian.build_s": "s",
    "qfi.qfi_gaussian_s": "s",
    "qfi.qfi_gaussian_self_s": "s",
    "qfi.family_evals_per_call": "count",
    "sld.qfi_complex_form_s": "s",
    "sld.optimal_observable_s": "s",
    "sld.self_s": "s",
    "sld.family_evals_per_call": "count",
    "fock.channel_build_s": "s",
    "fock.channels_built": "count",
    "fock.family_eval_s": "s",
    "fock.family_evals": "count",
    "fock.qfi_eq1_self_s": "s",
    "fock.quadrature_moments_s": "s",
    "validate.sld_fock_report_s": "s",
    "validate.sld_fock_report_self_s": "s",
    "trace.overhead_s": "s",
}


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _trace_gaussian_family(tracer: Tracer):
    """Count and time every evaluation of the numeric state families."""

    def make(build):
        def traced_build(*args, **kwargs):
            family = build(*args, **kwargs)
            return dataclasses.replace(
                family, eval=tracer.wrap("protocols.family_eval", family.eval)
            )

        return traced_build

    tracer.replace(protocols, "bifrequency_received_state", make)


class Workload:
    """What the workloads share: by default the measured process holds the work."""

    def peak_rss_kb(self) -> int:
        """Peak resident memory of this process."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# --- grid-cli ---------------------------------------------------------------

GRID_SPECS = {
    "full": ("0.75:0.95:3", "0.01:2:100", "0.01:100:100"),
    "quick": ("0.75:0.95:3", "0.01:2:4", "0.01:100:5"),
}
GRID_SAMPLED_ROWS = 100
CONSOLE_SCRIPT = "import sys; from bifrost.cli import main; sys.exit(main())"
# Start-up, imports of the same libraries and float formatting, as in ratio-grid.
GRID_REFERENCE_SCRIPT = (
    "import numpy, scipy.linalg\n"
    "rows = ('\\n'.join(','.join(format(x * 0.37, '.17g') for x in range(k, k + 6))"
    " for k in range(10000)))\n"
    "assert len(rows) > 100000\n"
)


def _axis(spec: str, log: bool) -> np.ndarray:
    lo, hi, steps = spec.split(":")
    space = np.geomspace if log else np.linspace
    return space(float(lo), float(hi), int(steps))


class GridCli(Workload):
    """``bifrost ratio-grid`` over the paper's advantage map, one fresh process per run."""

    name = "grid-cli"

    def __init__(self, seed: int, size: str):
        eta, ns, nth = GRID_SPECS[size]
        self.argv = ["ratio-grid", "--eta1", eta, "--ns", ns, "--nth", nth, "--log-nth"]
        self.axes = (_axis(eta, False), _axis(ns, False), _axis(nth, True))
        n_rows = int(np.prod([len(a) for a in self.axes]))
        rng = np.random.default_rng(seed)
        self.sampled = np.sort(rng.choice(n_rows, size=min(GRID_SAMPLED_ROWS, n_rows), replace=False))
        os.makedirs(OUT_DIR, exist_ok=True)
        self.out_path = os.path.join(OUT_DIR, f"grid-{os.getpid()}.csv")
        self.trace_path = os.path.join(OUT_DIR, f"grid-trace-{os.getpid()}.json")
        self.peak_kb = 0

    def peak_rss_kb(self) -> int:
        """The largest peak resident memory of the ratio-grid processes so far."""
        return self.peak_kb

    def _grid(self, threads: str | None = None, traced: bool = False) -> tuple[float, bytes]:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
        env.pop("BIFROST_THREADS", None)
        if threads is not None:
            env["BIFROST_THREADS"] = threads
        if traced:
            cmd = [sys.executable, os.path.join(BENCH_DIR, "cli_traced.py"), self.trace_path]
        else:
            cmd = [sys.executable, "-c", CONSOLE_SCRIPT]
        cmd += self.argv + ["--out", self.out_path]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE)
        with proc.stderr:
            stderr = proc.stderr.read()
        # wait4 gives this child's own peak memory, apart from other children.
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        if proc.returncode != 0:
            raise RuntimeError(f"ratio-grid exited {proc.returncode}: {stderr.decode()[-500:]}")
        with open(self.out_path, "rb") as fh:
            payload = fh.read()
        os.remove(self.out_path)
        return elapsed, payload

    def reference(self) -> float:
        """A fresh interpreter that imports numpy and scipy and formats floats."""
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", GRID_REFERENCE_SCRIPT], check=True, timeout=60)
        return time.perf_counter() - t0

    def run(self, index: int, traced: bool):
        elapsed, payload = self._grid(traced=traced)
        totals = None
        if traced:
            with open(self.trace_path, "r", encoding="utf-8") as fh:
                totals = json.load(fh)
            os.remove(self.trace_path)
        return elapsed, payload, totals

    def collect(self, outputs: list, output: bytes):
        """Keep the first payload whole and a digest of every payload."""
        if not outputs:
            outputs.append(output)
        outputs.append(hashlib.sha256(output).hexdigest())

    def check(self, outputs: list) -> list[str]:
        payload, digests = outputs[0], outputs[1:]
        failures = []
        if any(d != digests[0] for d in digests):
            failures.append("grid.repeat_bytes: output bytes differ between runs")
        _, threaded = self._grid(threads="2")
        if hashlib.sha256(threaded).hexdigest() != digests[0]:
            failures.append("grid.threads_bytes: output differs under BIFROST_THREADS=2")
        return failures + self.check_payload(payload)

    def check_payload(self, payload: bytes) -> list[str]:
        lines = payload.decode("ascii").split("\n")
        if lines[-1] != "" or lines[0] != cli.CSV_HEADER:
            return ["grid.format: header or final newline wrong"]
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:-1]])
        etas, n_ss, n_ths = self.axes
        expected = np.array([(e, s, t) for e in etas for s in n_ss for t in n_ths])
        if rows.shape != (len(expected), 6) or not np.array_equal(rows[:, :3], expected):
            return ["grid.axes: rows or their order do not match the axes"]
        failures = []
        bad = np.flatnonzero(rows[:, 5] != rows[:, 3] / rows[:, 4])
        if bad.size:
            failures.append(f"grid.ratio: ratio != h_q/h_c on {bad.size} rows, first row {bad[0]}")
        for k in self.sampled:
            e, s, t, h_q, h_c, _ = rows[k]
            point = protocols.BiFrequencyParams(e, 0.0, s, t)
            for probe, value in (("tmsv", h_q), ("coherent", h_c)):
                ref = sld.qfi_complex_form(protocols.bifrequency_received_state(point, probe))
                if _rel(value, ref) > CLOSED_FORM_RTOL:
                    failures.append(f"grid.recompute: row {k} {probe} {value!r} vs {ref!r}")
        return failures

    def trace_metrics(self, totals: dict, n_ops: int) -> dict:
        return {
            "cli.import_s": totals["import_s"] / n_ops,
            "cli.grid_main_s": totals["main_s"] / n_ops,
            "cli.grid_self_s": totals["cli_self_s"] / n_ops,
            "protocols.advantage_s": totals["advantage_s"] / n_ops,
            "protocols.advantage_calls": totals["advantage_calls"] / n_ops,
        }


# --- numeric-points ---------------------------------------------------------

# Points are drawn once per run; one operation takes the next batch of them.
# Each batch is a Latin hypercube in (eta1, log n_s, log n_th): every axis is
# cut into as many strata as the batch has points and each stratum holds one
# point, so every batch spans the box alike and its cost varies little with
# the seed.
POINT_POOL = {"full": 4096, "quick": 4}
POINTS_PER_OP = {"full": 16, "quick": 2}
REFERENCE_4X4 = np.random.default_rng(0).random((4, 4))
# (low, high) of eta1, log10 n_s and log10 n_th; each is sampled uniformly.
POINT_BOX = ((0.05, 0.95), (-2.0, 1.0), (-2.0, np.log10(5.0)))


def _latin_batches(rng, n_batches: int, batch: int) -> np.ndarray:
    strata = np.stack([
        np.stack([rng.permutation(batch) for _ in POINT_BOX], axis=1)
        for _ in range(n_batches)
    ])
    unit = (strata + rng.random(strata.shape)) / batch
    lo, hi = np.array(POINT_BOX).T
    u = (lo + unit * (hi - lo)).reshape(-1, len(POINT_BOX))
    return np.column_stack([u[:, 0], 10.0 ** u[:, 1], 10.0 ** u[:, 2]])


class NumericPoints(Workload):
    """Both QFI routes and the optimal observable at seeded operating points."""

    name = "numeric-points"

    def __init__(self, seed: int, size: str):
        self.batch = POINTS_PER_OP[size]
        rng = np.random.default_rng(seed)
        self.points = _latin_batches(rng, POINT_POOL[size] // self.batch, self.batch)

    def reference(self) -> float:
        """Small numpy products and determinants and a short Python loop."""
        a = REFERENCE_4X4
        t0 = time.perf_counter()
        for _ in range(1500):
            np.linalg.det(a @ a.T + np.eye(4))
            sum(j * j for j in range(20))
        return time.perf_counter() - t0

    def install(self, tracer: Tracer):
        for module in (gaussian, qfi, sld, protocols):
            tracer.wrap_module(module)
        _trace_gaussian_family(tracer)

    def run(self, index: int, traced: bool):
        ks = [(index * self.batch + j) % len(self.points) for j in range(self.batch)]
        tracer = Tracer() if traced else None
        if tracer:
            self.install(tracer)
        try:
            t0 = time.perf_counter()
            output = []
            for k in ks:
                eta1, n_s, n_th = self.points[k]
                point = protocols.BiFrequencyParams(eta1, 0.0, n_s, n_th)
                tmsv = protocols.bifrequency_received_state(point, "tmsv")
                coherent = protocols.bifrequency_received_state(point, "coherent")
                output.append((
                    k,
                    qfi.qfi_gaussian(tmsv).value,
                    qfi.qfi_gaussian(coherent).value,
                    sld.qfi_complex_form(tmsv),
                    sld.qfi_complex_form(coherent),
                    sld.optimal_observable(tmsv).as_tuple(),
                ))
            elapsed = time.perf_counter() - t0
        finally:
            if tracer:
                tracer.restore()
        return elapsed, output, self.trace_totals(tracer.take(), len(ks)) if tracer else None

    def collect(self, outputs: list, output):
        outputs.extend(output)

    def check(self, outputs: list) -> list[str]:
        failures = []
        for k, hq_g, hc_g, hq_c, hc_c, coeffs in outputs:
            eta1, n_s, n_th = self.points[k]
            hq = qfi.hq_closed_form(eta1, n_s, n_th)
            hc = qfi.hc_closed_form(eta1, n_s, n_th)
            for label, value, ref in (
                ("qfi_gaussian tmsv", hq_g, hq), ("qfi_gaussian coherent", hc_g, hc),
                ("qfi_complex_form tmsv", hq_c, hq), ("qfi_complex_form coherent", hc_c, hc),
            ):
                if _rel(value, ref) > CLOSED_FORM_RTOL:
                    failures.append(f"points.qfi: point {k} {label} {value!r} vs {ref!r}")
            closed = sld.sld_coeffs_closed_form(eta1, n_s, n_th).as_tuple()
            for name, a, b in zip(("l11", "l22", "l12", "l0"), coeffs, closed):
                if abs(a - b) > CLOSED_FORM_RTOL * max(abs(b), 1e-3):
                    failures.append(f"points.observable: point {k} {name} {a!r} vs {b!r}")
        return failures

    @staticmethod
    def trace_totals(tree, points: int) -> dict:
        evals = tree.attributed("protocols.family_eval", ("qfi", "sld"))
        return {
            "points": points,
            "family_eval_s": tree.time("protocols.family_eval"),
            "family_evals": tree.count("protocols.family_eval"),
            "gaussian_calls_in_evals": tree.layer_calls_within("gaussian", "protocols.family_eval"),
            "gaussian_build_s": tree.layer_time_within("gaussian", "protocols.family_eval"),
            "qfi_gaussian_s": tree.time("qfi.qfi_gaussian"),
            "qfi_gaussian_self_s": tree.self_time("qfi.qfi_gaussian"),
            "qfi_gaussian_calls": tree.count("qfi.qfi_gaussian"),
            "qfi_evals": evals["qfi"],
            "qfi_complex_form_s": tree.time("sld.qfi_complex_form"),
            "optimal_observable_s": tree.time("sld.optimal_observable"),
            "sld_self_s": tree.layer_self_time("sld"),
            "sld_calls": tree.outermost_calls("sld"),
            "sld_evals": evals["sld"],
        }

    def trace_metrics(self, totals: dict, n_ops: int) -> dict:
        points = totals["points"]
        return {
            "protocols.family_eval_s": totals["family_eval_s"] / points,
            "protocols.family_evals_per_point": totals["family_evals"] / points,
            "gaussian.calls_per_eval": _ratio(totals["gaussian_calls_in_evals"], totals["family_evals"]),
            "gaussian.build_s": totals["gaussian_build_s"] / points,
            "qfi.qfi_gaussian_s": totals["qfi_gaussian_s"] / points,
            "qfi.qfi_gaussian_self_s": totals["qfi_gaussian_self_s"] / points,
            "qfi.family_evals_per_call": _ratio(totals["qfi_evals"], totals["qfi_gaussian_calls"]),
            "sld.qfi_complex_form_s": totals["qfi_complex_form_s"] / points,
            "sld.optimal_observable_s": totals["optimal_observable_s"] / points,
            "sld.self_s": totals["sld_self_s"] / points,
            "sld.family_evals_per_call": _ratio(totals["sld_evals"], totals["sld_calls"]),
        }


# --- fock-oracle ------------------------------------------------------------

# One configuration of validate.ORACLE_CONFIGS; the quick size uses a smaller
# one whose checks still hold at its lower cutoff.
ORACLE_SUBSET = {
    "full": ([(0.8, 0.5, 0.3)], 30),
    "quick": ([(0.5, 0.2, 0.1)], 16),
}


class FockOracle(Workload):
    """One pass of the truncated-Fock oracle over a fixed configuration subset."""

    name = "fock-oracle"

    def __init__(self, seed: int, size: str):
        configs, self.cutoff = ORACLE_SUBSET[size]
        items = [(c, probe) for c in configs for probe in ("tmsv", "coherent")]
        order = np.random.default_rng(seed).permutation(len(items))
        self.items = [items[i] for i in order]

    def reference(self) -> float:
        """Dense complex ``eigh`` and products at the oracle's sizes.

        The matrix is made anew each time and dropped, so that it does not
        add to the process's peak memory.
        """
        rng = np.random.default_rng(0)
        m = rng.standard_normal((900, 900)) + 1j * rng.standard_normal((900, 900))
        h = (m + m.conj().T) / 2.0
        t0 = time.perf_counter()
        np.linalg.eigh(h)
        h @ h
        return time.perf_counter() - t0

    def install(self, tracer: Tracer):
        for module in (fock, validate, gaussian, qfi, sld, protocols):
            tracer.wrap_module(module)
        _trace_gaussian_family(tracer)
        tracer.wrap_init(fock.ThermalLossChannel, "fock.ThermalLossChannel")

        def make(build):
            def traced_build(*args, **kwargs):
                return tracer.wrap("fock.family_eval", build(*args, **kwargs))

            return traced_build

        tracer.replace(fock, "bifrequency_fock_family", make)

    def run(self, index: int, traced: bool):
        tracer = Tracer() if traced else None
        if tracer:
            self.install(tracer)
        try:
            t0 = time.perf_counter()
            output = []
            for (eta1, n_s, n_th), probe in self.items:
                family = fock.bifrequency_fock_family(eta1, n_s, n_th, probe, self.cutoff)
                record = {
                    "config": (eta1, n_s, n_th),
                    "probe": probe,
                    "qfi": fock.qfi_eq1(family),
                    "report": validate.sld_fock_report(eta1, n_s, n_th, probe, self.cutoff),
                }
                if probe == "tmsv":
                    record["moments"] = fock.quadrature_moments(family(0.0))
                output.append(record)
            elapsed = time.perf_counter() - t0
        finally:
            if tracer:
                tracer.restore()
        return elapsed, output, self.trace_totals(tracer.take()) if tracer else None

    def collect(self, outputs: list, output):
        outputs.append(output)

    def check(self, outputs: list) -> list[str]:
        failures = []
        for records in outputs:
            for r in records:
                (eta1, n_s, n_th), probe = r["config"], r["probe"]
                tag = f"{probe} {r['config']}"
                closed = qfi.hq_closed_form if probe == "tmsv" else qfi.hc_closed_form
                ref = closed(eta1, n_s, n_th)
                if _rel(r["qfi"], ref) > ORACLE_RTOL:
                    failures.append(f"oracle.qfi_eq1: {tag} {r['qfi']!r} vs {ref!r}")
                rep = r["report"]
                if not rep["residual"] <= SLD_RESIDUAL_TOL:
                    failures.append(f"oracle.sld_residual: {tag} {rep['residual']!r}")
                if not rep["variance_rel_error"] <= SLD_VARIANCE_TOL:
                    failures.append(f"oracle.sld_variance: {tag} {rep['variance_rel_error']!r}")
                if not abs(rep["mean"]) <= SLD_MEAN_TOL:
                    failures.append(f"oracle.sld_mean: {tag} {rep['mean']!r}")
                if "moments" in r:
                    point = protocols.BiFrequencyParams(eta1, 0.0, n_s, n_th)
                    state = protocols.bifrequency_received_state(point, probe).eval(0.0)
                    cov, disp = r["moments"]
                    dev = max(np.max(np.abs(cov - state.cov)), np.max(np.abs(disp - state.disp)))
                    if not dev <= MOMENTS_TOL:
                        failures.append(f"oracle.moments: {tag} deviation {dev!r}")
        return failures

    @staticmethod
    def trace_totals(tree) -> dict:
        return {
            "channel_build_s": tree.time("fock.ThermalLossChannel"),
            "channels_built": tree.count("fock.ThermalLossChannel"),
            "family_eval_s": tree.time("fock.family_eval"),
            "family_evals": tree.count("fock.family_eval"),
            "qfi_eq1_self_s": tree.self_time("fock.qfi_eq1"),
            "quadrature_moments_s": tree.time("fock.quadrature_moments"),
            "sld_fock_report_s": tree.time("validate.sld_fock_report"),
            "sld_fock_report_self_s": tree.self_time("validate.sld_fock_report"),
            "gaussian_family_eval_s": tree.time("protocols.family_eval"),
            "gaussian_family_evals": tree.count("protocols.family_eval"),
            "gaussian_calls_in_evals": tree.layer_calls_within("gaussian", "protocols.family_eval"),
            "gaussian_build_s": tree.layer_time_within("gaussian", "protocols.family_eval"),
            "qfi_gaussian_s": tree.time("qfi.qfi_gaussian"),
            "sld_self_s": tree.layer_self_time("sld"),
        }

    def trace_metrics(self, totals: dict, n_ops: int) -> dict:
        metrics = {
            "fock." + k: totals[k] / n_ops
            for k in ("channel_build_s", "channels_built", "family_eval_s", "family_evals",
                      "qfi_eq1_self_s", "quadrature_moments_s")
        }
        metrics.update({
            "validate.sld_fock_report_s": totals["sld_fock_report_s"] / n_ops,
            "validate.sld_fock_report_self_s": totals["sld_fock_report_self_s"] / n_ops,
            "protocols.family_eval_s": totals["gaussian_family_eval_s"] / n_ops,
            "gaussian.calls_per_eval": _ratio(totals["gaussian_calls_in_evals"],
                                              totals["gaussian_family_evals"]),
            "gaussian.build_s": totals["gaussian_build_s"] / n_ops,
            "qfi.qfi_gaussian_s": totals["qfi_gaussian_s"] / n_ops,
            "sld.self_s": totals["sld_self_s"] / n_ops,
        })
        return metrics


WORKLOADS = {w.name: w for w in (GridCli, NumericPoints, FockOracle)}
