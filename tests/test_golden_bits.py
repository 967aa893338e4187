"""Golden bits of the numeric Gaussian pipeline at fixed operating points.

``golden_bits.json`` holds, as ``float.hex``, every field of ``qfi_gaussian``
and ``qfi_result`` and the ``optimal_observable`` coefficients of both probes
at 64 seeded points of the benchmark's numeric-points box, (eta1, log10 n_s,
log10 n_th) in [0.05, 0.95] x [-2, 1] x [-2, log10 5], and at the edge
points of the documented domain, with the platform it was recorded on
(``golden_platform``). Under ``qi`` it holds both numeric
quantum-illumination pipelines, ``qi_quantum_qfi_numeric`` and
``qi_classical_qfi_numeric``, at the same 64 points with eta1 read as the
amplitude reflectivity, and at the points of ``qi-check``
(``validate.qi_regression_checks``). A call that raises is recorded by its
error's class. The test compares exactly: a change meant to keep every
number must keep these bits.

Regenerate the file only for a change meant to move numbers:
``PYTHONPATH=src python tests/test_golden_bits.py``.
"""

import dataclasses
import json
import os

import numpy as np

from bifrost.protocols import (
    BiFrequencyParams,
    bifrequency_received_state,
    qi_classical_qfi_numeric,
    qi_quantum_qfi_numeric,
)
from bifrost.qfi import qfi_gaussian
from bifrost.sld import optimal_observable, qfi_result
from golden_platform import build, check_build

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_bits.json")
EDGE_POINTS = [
    (0.8053, 2.86e-6, 1e-6),
    (0.5, 1e-6, 1e-6),
    (0.999999, 1.0, 1.0),
    (0.999999, 1e6, 1e-6),
    (0.999999, 1e-6, 1e-6),
    (1e-6, 1e6, 1e6),
]
# the points of ``qi-check``: amplitude reflectivity, n_s, n_th
QI_CHECK_POINTS = [(1e-4, n_s, n_th) for n_s in (0.1, 0.5, 1.0) for n_th in (0.5, 2.0, 10.0)]


def _box() -> list[tuple[float, float, float]]:
    rng = np.random.default_rng(20151024)
    box = rng.uniform((0.05, -2.0, -2.0), (0.95, 1.0, np.log10(5.0)), size=(64, 3))
    return [(float(e), 10.0 ** float(s), 10.0 ** float(t)) for e, s, t in box]


def _record(call) -> list[str] | str:
    """The float fields of ``call()`` as hex, or the class name of its error."""
    try:
        value = call()
    except Exception as exc:  # every error is part of the record
        return type(exc).__name__
    if isinstance(value, float):
        return value.hex()
    fields = value.as_tuple() if hasattr(value, "as_tuple") else dataclasses.astuple(value)
    return [float(v).hex() for v in fields]


def _entry(point: tuple[float, float, float], probe: str) -> dict:
    def family():
        return bifrequency_received_state(BiFrequencyParams(point[0], 0.0, *point[1:]), probe)

    return {
        "point": [v.hex() for v in point],
        "probe": probe,
        "qfi_gaussian": _record(lambda: qfi_gaussian(family())),
        "qfi_result": _record(lambda: qfi_result(family())),
        "optimal_observable": _record(lambda: optimal_observable(family())),
    }


def _qi_entry(point: tuple[float, float, float]) -> dict:
    return {
        "point": [v.hex() for v in point],
        "qi_quantum_qfi_numeric": _record(lambda: qi_quantum_qfi_numeric(*point)),
        "qi_classical_qfi_numeric": _record(lambda: qi_classical_qfi_numeric(*point)),
    }


def test_numeric_pipeline_keeps_its_golden_bits():
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        golden = json.load(fh)
    check_build(golden, "golden_bits.json")
    entries = golden["entries"]
    assert len(entries) == 2 * (64 + len(EDGE_POINTS))
    for expected in entries:
        point = tuple(float.fromhex(v) for v in expected["point"])
        assert _entry(point, expected["probe"]) == expected


def test_quantum_illumination_pipelines_keep_their_golden_bits():
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        golden = json.load(fh)
    check_build(golden, "golden_bits.json")
    entries = golden["qi"]
    assert len(entries) == 64 + len(QI_CHECK_POINTS)
    for expected in entries:
        assert _qi_entry(tuple(float.fromhex(v) for v in expected["point"])) == expected


if __name__ == "__main__":
    entries = [_entry(p, probe) for p in _box() + EDGE_POINTS for probe in ("tmsv", "coherent")]
    qi = [_qi_entry(p) for p in _box() + QI_CHECK_POINTS]
    with open(GOLDEN, "w", encoding="utf-8", newline="\n") as fh:
        json.dump({"build": build(), "entries": entries, "qi": qi}, fh, indent=1)
        fh.write("\n")
