"""Self-test of the benchmark's checks: each must reject a corrupted output.

Usage, from the root of a source checkout:  python3 bench/selftest.py

For every workload, one real operation is run at the quick size; its output
must pass every check.  Then each case below corrupts a copy of that output
in one way and requires the named check, and only that check, to fail.
Exits 0 when every case behaves so.
"""

from __future__ import annotations

import copy
import hashlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from workloads import FockOracle, GridCli, NumericPoints  # noqa: E402

SEED = 1


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _edit_row(payload: bytes, row: int, edit) -> bytes:
    lines = payload.decode("ascii").split("\n")
    fields = [float(v) for v in lines[row + 1].split(",")]
    lines[row + 1] = ",".join(_fmt(v) for v in edit(fields))
    return "\n".join(lines).encode("ascii")


def grid_cases():
    grid = GridCli(SEED, "quick")
    _, payload = grid._grid()
    sampled = int(grid.sampled[0])

    def perturb_hq(f):
        f[3] *= 1.0 + 1e-5
        f[5] = f[3] / f[4]
        return f

    def perturb_ratio(f):
        f[5] *= 1.0 + 1e-12
        return f

    def swapped_rows(p):
        lines = p.decode("ascii").split("\n")
        lines[1], lines[2] = lines[2], lines[1]
        return "\n".join(lines).encode("ascii")

    def threaded(corrupt):
        def fake(threads=None, traced=False):
            return 0.0, corrupt
        return fake

    yield "clean grid output", None, lambda: grid.check([payload] + [_digest(payload)] * 2)
    yield "perturbed h_q row", "grid.recompute", \
        lambda: grid.check_payload(_edit_row(payload, sampled, perturb_hq))
    yield "ratio != h_q/h_c", "grid.ratio", \
        lambda: grid.check_payload(_edit_row(payload, sampled + 1, perturb_ratio))
    yield "rows out of order", "grid.axes", lambda: grid.check_payload(swapped_rows(payload))
    other = _edit_row(payload, 0, perturb_ratio)
    yield "bytes differ between runs", "grid.repeat_bytes", \
        lambda: grid.check([payload, _digest(payload), _digest(other)])

    def threads_case():
        grid._grid = threaded(other)
        try:
            return grid.check([payload, _digest(payload)])
        finally:
            del grid._grid

    yield "bytes differ under BIFROST_THREADS=2", "grid.threads_bytes", threads_case


def _edit_point(output, slot: int, value):
    edited = list(output)
    edited[slot] = value
    return tuple(edited)


def points_cases():
    points = NumericPoints(SEED, "quick")
    good = points.run(0, False)[1]
    l11, l22, l12, l0 = good[1][5]
    yield "clean point outputs", None, lambda: points.check(good)
    yield "perturbed qfi_gaussian value", "points.qfi", \
        lambda: points.check([_edit_point(good[0], 1, good[0][1] * (1.0 + 1e-5)), good[1]])
    yield "perturbed qfi_complex_form value", "points.qfi", \
        lambda: points.check([good[0], _edit_point(good[1], 4, good[1][4] * (1.0 - 1e-5))])
    yield "swapped SLD coefficients", "points.observable", \
        lambda: points.check([good[0], _edit_point(good[1], 5, (l22, l11, l12, l0))])


def oracle_cases():
    oracle = FockOracle(SEED, "quick")
    good = oracle.run(0, False)[1]

    def corrupted(edit):
        bad = copy.deepcopy(good)
        edit(next(r for r in bad if "moments" in r))
        return lambda: oracle.check([bad])

    def wrong_qfi(r):
        r["qfi"] *= 1.01

    def residual(r):
        r["report"]["residual"] = 2e-3

    def variance(r):
        r["report"]["variance_rel_error"] = 2e-3

    def mean(r):
        r["report"]["mean"] = -2e-4

    def moments(r):
        cov, disp = r["moments"]
        cov = cov.copy()
        cov[0, 2] += 1e-5
        r["moments"] = (cov, disp)

    yield "clean oracle pass", None, lambda: oracle.check([good])
    yield "wrong oracle value", "oracle.qfi_eq1", corrupted(wrong_qfi)
    yield "SLD anticommutator residual", "oracle.sld_residual", corrupted(residual)
    yield "SLD variance error", "oracle.sld_variance", corrupted(variance)
    yield "SLD nonzero mean", "oracle.sld_mean", corrupted(mean)
    yield "quadrature covariance off", "oracle.moments", corrupted(moments)


def main() -> int:
    bad = 0
    for cases in (grid_cases(), points_cases(), oracle_cases()):
        for label, expected, run_check in cases:
            failures = run_check()
            if expected is None:
                ok = not failures
            else:
                ok = bool(failures) and all(f.startswith(expected + ":") for f in failures)
            bad += not ok
            want = "passes" if expected is None else f"fails {expected}"
            print(f"[{'PASS' if ok else 'FAIL'}] {label}: check {want}; got {failures[:2]}")
    print(f"{bad} self-test case(s) failed" if bad else "all self-test cases passed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
