"""Golden bits of the truncated-Fock oracle at the validation points.

``golden_oracle.json`` holds, as ``float.hex``, ``fock.qfi_eq1``, every field
of ``validate.sld_fock_report`` and the ``fock.quadrature_moments`` of the
received state, for both probes at every ``validate.ORACLE_CONFIGS`` point,
at ``validate.CUTOFF``, with the platform it was recorded on
(``golden_platform``). The test compares exactly: a change meant to keep
every oracle number must keep these bits.

Regenerate the file only for a change meant to move numbers:
``PYTHONPATH=src python tests/test_golden_oracle.py``.
"""

import json
import os

from bifrost import fock, validate
from golden_platform import build, check_build

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_oracle.json")
PROBES = ("tmsv", "coherent")


def _entry(config: tuple[float, float, float], probe: str) -> dict:
    family = fock.bifrequency_fock_family(*config, probe, validate.CUTOFF)
    qfi = fock.qfi_eq1(family)
    report = validate.sld_fock_report(*config, probe, validate.CUTOFF)
    cov, disp = fock.quadrature_moments(family(fock.LAMBDA0))
    return {
        "config": [v.hex() for v in config],
        "probe": probe,
        "qfi_eq1": qfi.hex(),
        "sld_fock_report": {key: float(value).hex() for key, value in report.items()},
        "quadrature_moments": {
            "cov": [float(v).hex() for v in cov.ravel()],
            "disp": [float(v).hex() for v in disp],
        },
    }


def test_oracle_keeps_its_golden_bits():
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        golden = json.load(fh)
    check_build(golden, "golden_oracle.json")
    entries = golden["entries"]
    assert len(entries) == len(PROBES) * len(validate.ORACLE_CONFIGS)
    for expected in entries:
        config = tuple(float.fromhex(v) for v in expected["config"])
        assert _entry(config, expected["probe"]) == expected


if __name__ == "__main__":
    entries = [_entry(c, probe) for c in validate.ORACLE_CONFIGS for probe in PROBES]
    with open(GOLDEN, "w", encoding="utf-8", newline="\n") as fh:
        json.dump({"build": build(), "entries": entries}, fh, indent=1)
        fh.write("\n")
