"""Golden bits of the truncated-Fock oracle at the validation points.

``golden_oracle.json`` holds, as ``float.hex``, ``fock.qfi_eq1``, every field
of ``validate.sld_fock_report`` and the ``fock.quadrature_moments`` of the
received state, for both probes at every ``validate.ORACLE_CONFIGS`` point,
at ``validate.CUTOFF``, with the platform it was recorded on
(``golden_platform``). The test compares exactly: a change meant to keep
every oracle number must keep these bits.

Regenerate the file only for a change meant to move numbers:
``PYTHONPATH=src python tests/test_golden_oracle.py``. Before it writes, it
prints, per field, how many entries moved and the largest absolute and
relative move against the committed record: the bound a change that moves
the oracle states.
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


def _fields(entry: dict) -> dict[str, list[float]]:
    """The numbers of an entry, by field."""
    fields = {"qfi_eq1": [entry["qfi_eq1"]]}
    fields |= {f"sld_fock_report.{key}": [v] for key, v in entry["sld_fock_report"].items()}
    fields |= {f"quadrature_moments.{key}": v for key, v in entry["quadrature_moments"].items()}
    return {field: [float.fromhex(v) for v in values] for field, values in fields.items()}


def print_moves(old_entries: list[dict], new_entries: list[dict]):
    """Per field, the entries whose bits moved and the largest absolute and
    relative move, over the (config, probe) entries of both records."""
    old = {(tuple(e["config"]), e["probe"]): _fields(e) for e in old_entries}
    stats = {}
    for entry in new_entries:
        key = (tuple(entry["config"]), entry["probe"])
        if key not in old:
            print(f"new entry {key}")
            continue
        for field, values in _fields(entry).items():
            moved, top_abs, top_rel = stats.get(field, (0, 0.0, 0.0))
            for was, now in zip(old[key][field], values, strict=True):
                if was.hex() != now.hex():
                    move = abs(now - was)
                    moved, top_abs = moved + 1, max(top_abs, move)
                    top_rel = max(top_rel, move / abs(was) if was else float("inf"))
            stats[field] = moved, top_abs, top_rel
    for field, (moved, top_abs, top_rel) in stats.items():
        print(f"{field}: {moved} moved, largest absolute {top_abs:.3e}, relative {top_rel:.3e}")


if __name__ == "__main__":
    entries = [_entry(c, probe) for c in validate.ORACLE_CONFIGS for probe in PROBES]
    if os.path.exists(GOLDEN):
        with open(GOLDEN, "r", encoding="utf-8") as fh:
            print_moves(json.load(fh)["entries"], entries)
    with open(GOLDEN, "w", encoding="utf-8", newline="\n") as fh:
        json.dump({"build": build(), "entries": entries}, fh, indent=1)
        fh.write("\n")
