"""Golden output of the command line.

``golden_cli.json`` holds, for each argv of ``ARGV``, the exit code, stdout,
stderr and the warnings raised, of ``bifrost.cli.main`` run in process: every
subcommand at its defaults, ``validate --quick``, and ``qfi`` for both probes
and ``sld`` at the edge points of ``test_cli.py``. For ``ratio-grid`` on the
benchmark's full grid, in CSV and JSON, it holds the exit code, the sha256 of
stdout and its row count. The test compares exactly: a change meant to keep
every printed number must keep these bytes.

The bytes depend on the numpy build and its BLAS, so the file records both
(``golden_platform``).

Regenerate the file only for a change meant to move output:
``PYTHONPATH=src python tests/test_golden_cli.py``.
"""

import contextlib
import hashlib
import io
import json
import os
import warnings

from bifrost import cli
from golden_platform import build, check_build

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli.json")
# the edge points of test_cli.py: QFI_EDGE_POINTS and QFI_STORED_MOMENT_CORNERS
EDGE_POINTS = [
    ("0.8053", "2.86e-06", "1e-06"),
    ("0.5", "1e-06", "1e-06"),
    ("0.999999", "1.0", "1.0"),
    ("0.999999", "1000000.0", "1e-06"),
    ("0.999999", "1e-06", "1e-06"),
]
ARGV = [
    ["ratio-grid"], ["qfi"], ["sld"], ["qi-check"], ["validate"], ["validate", "--quick"],
    ["thermal-approx"], ["circuit"],
] + [
    argv
    for eta1, n_s, n_th in EDGE_POINTS
    for argv in (
        ["qfi", "--eta1", eta1, "--ns", n_s, "--nth", n_th, "--probe", "tmsv"],
        ["qfi", "--eta1", eta1, "--ns", n_s, "--nth", n_th, "--probe", "coherent"],
        ["sld", "--eta1", eta1, "--ns", n_s, "--nth", n_th],
    )
]
# the benchmark's full ratio-grid, 30,000 rows
GRID = ["ratio-grid", "--eta1", "0.75:0.95:3", "--ns", "0.01:2:100", "--nth", "0.01:100:100", "--log-nth"]


def _run(argv: list[str]) -> dict:
    """Exit code, stdout, stderr and warnings of ``cli.main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    return {
        "argv": argv,
        "exit": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
    }


def _grid(fmt: str) -> dict:
    """``ratio-grid`` on GRID in ``fmt``: stdout as its sha256 and row count."""
    record = _run(GRID + ["--format", fmt])
    text = record.pop("stdout")
    rows = len(json.loads(text)) if fmt == "json" else text.count("\n") - 1
    return {**record, "sha256": hashlib.sha256(text.encode()).hexdigest(), "rows": rows}


def _record() -> dict:
    return {
        "build": build(),
        "commands": [_run(argv) for argv in ARGV],
        "ratio_grid": {fmt: _grid(fmt) for fmt in ("csv", "json")},
    }


def test_cli_keeps_its_golden_output():
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        golden = json.load(fh)
    check_build(golden, "golden_cli.json")
    assert [entry["argv"] for entry in golden["commands"]] == ARGV
    for expected in golden["commands"]:
        assert _run(expected["argv"]) == expected
    for fmt, expected in golden["ratio_grid"].items():
        assert _grid(fmt) == expected


if __name__ == "__main__":
    record = _record()
    with open(GOLDEN, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
