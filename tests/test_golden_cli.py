"""Golden output of the command line.

``golden_cli.json`` holds, for each argv of ``ARGV``, the exit code, stdout,
stderr and the warnings raised, of ``bifrost.cli.main`` run in process: every
subcommand at its defaults, ``qfi`` for both probes and ``sld`` at the
edge points of ``test_cli.py``, every command that takes
a photon number at the domain's bounds and at their neighbours outside it,
``qfi`` above the domain and ``sld`` at the vacuum. For ``ratio-grid`` on the
benchmark's full grid, in CSV and JSON, it holds the exit code, the sha256 of
stdout and its row count. The test compares exactly: a change meant to keep
every printed number must keep these bytes.

The bytes depend on the numpy build and its BLAS, so the file records both
(``golden_platform``).

Regenerate the file only for a change meant to move output:
``PYTHONPATH=src python tests/test_golden_cli.py``. Before it writes, it
prints each changed line against the committed record, with the largest
absolute and relative move of its numbers, and each changed exit code,
warning list and ``ratio-grid`` hash.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import re
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
# the bounds of the photon-number domain, and their float neighbours outside it
BOUNDS = ["1e-06", "1000000.0", "9.999999999999997e-07", "1000000.0000000001"]
ARGV = [
    ["ratio-grid"], ["qfi"], ["sld"], ["qi-check"], ["validate"], ["thermal-approx"], ["circuit"],
] + [
    argv
    for eta1, n_s, n_th in EDGE_POINTS
    for argv in (
        ["qfi", "--eta1", eta1, "--ns", n_s, "--nth", n_th, "--probe", "tmsv"],
        ["qfi", "--eta1", eta1, "--ns", n_s, "--nth", n_th, "--probe", "coherent"],
        ["sld", "--eta1", eta1, "--ns", n_s, "--nth", n_th],
    )
] + [
    [command, flag, value]
    for command, flag in (("ratio-grid", "--ns"), ("ratio-grid", "--nth"), ("qfi", "--ns"),
                          ("qfi", "--nth"), ("sld", "--ns"), ("sld", "--nth"), ("circuit", "--ns"))
    for value in BOUNDS
] + [["qfi", "--eta1", "0.9", "--ns", "1e13", "--nth", "1"], ["sld", "--eta1", "0.5", "--ns", "0", "--nth", "0"]]
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


NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|-?Infinity|NaN")


def _line_move(was: str, now: str) -> str:
    """The largest absolute and relative move of the numbers of a changed
    line, or its two texts where more than its numbers changed."""
    if NUMBER.sub("#", was or "") != NUMBER.sub("#", now or ""):
        return f"{was!r} -> {now!r}"
    pairs = [(float(a), float(b)) for a, b in zip(NUMBER.findall(was), NUMBER.findall(now)) if a != b]
    top_abs = max(abs(b - a) for a, b in pairs)
    top_rel = max(abs(b - a) / abs(a) if a else float("inf") for a, b in pairs)
    return f"largest absolute {top_abs:.3e}, relative {top_rel:.3e}: {now}"


def print_moves(old: dict, new: dict):
    """Each line of stdout and stderr that changed from ``old`` to ``new``,
    with its move, and each changed exit code, warning list or grid hash."""
    before = {tuple(entry["argv"]): entry for entry in old["commands"]}
    for entry in new["commands"]:
        argv, was = " ".join(entry["argv"]), before.get(tuple(entry["argv"]))
        if was is None:
            print(f"{argv}: new command")
            continue
        for key in ("exit", "warnings"):
            if was[key] != entry[key]:
                print(f"{argv}: {key} {was[key]!r} -> {entry[key]!r}")
        for stream in ("stdout", "stderr"):
            lines = itertools.zip_longest(was[stream].splitlines(), entry[stream].splitlines())
            for number, (a, b) in enumerate(lines, 1):
                if a != b:
                    print(f"{argv}: {stream} line {number}: {_line_move(a, b)}")
    for fmt, entry in new["ratio_grid"].items():
        if old["ratio_grid"].get(fmt) != entry:
            print(f"ratio-grid {fmt}: {old['ratio_grid'].get(fmt)!r} -> {entry!r}")


if __name__ == "__main__":
    record = _record()
    if os.path.exists(GOLDEN):
        with open(GOLDEN, "r", encoding="utf-8") as fh:
            print_moves(json.load(fh), record)
    with open(GOLDEN, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
