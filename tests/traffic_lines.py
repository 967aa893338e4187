"""List the lines of ``src/`` that the package's real traffic never reaches.

Usage, from the repository root::

    python tests/traffic_lines.py

Runs, in this process and under the standard library's ``trace.Trace``,
every ``bifrost`` subcommand at its defaults, ``ratio-grid`` on a small grid
in CSV and in JSON, and the library calls of one ``numeric-points`` and one
``fock-oracle`` operation as ``bench/README.md`` lists them; then prints,
per module of ``src/bifrost``, every line of a function body that no call
reached, as ``path:line: source``, and one count line per module. Lines of
``raise`` statements and of docstrings are skipped, and so is module-level
code, which runs at import. A line listed here is reached, if at all, only
by tests or by library calls that no command or benchmark operation makes.
"""

import ast
import contextlib
import dis
import io
import pathlib
import sys
import trace

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bifrost"
sys.path.insert(0, str(PACKAGE.parent))

import numpy as np  # noqa: E402

from bifrost import cli, fock, protocols, qfi, validate  # noqa: E402
from bifrost.sld import optimal_observable, qfi_complex_form  # noqa: E402

SUBCOMMANDS = ("ratio-grid", "qfi", "sld", "qi-check", "validate", "thermal-approx", "circuit")
SMALL_GRID = ["ratio-grid", "--eta1", "0.5:0.9:3", "--ns", "0.1:2:3", "--nth", "0.1:10:3", "--log-nth"]
# operating points of the numeric-points operation, drawn from its box
POINTS = 4


def _traffic() -> None:
    """The commands and the benchmark operations, their output discarded."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in [[name] for name in SUBCOMMANDS] + [SMALL_GRID, SMALL_GRID + ["--format", "json"]]:
            cli.main(argv)
    rng = np.random.default_rng(0)
    box = zip(rng.uniform(0.05, 0.95, POINTS), 10.0 ** rng.uniform(-2, 1, POINTS),
              10.0 ** rng.uniform(-2, np.log10(5.0), POINTS))
    for eta1, n_s, n_th in box:
        point = protocols.BiFrequencyParams(eta1, 0.0, n_s, n_th)
        tmsv = protocols.bifrequency_received_state(point, "tmsv")
        coherent = protocols.bifrequency_received_state(point, "coherent")
        for family in (tmsv, coherent):
            qfi.qfi_gaussian(family)
            qfi_complex_form(family)
        optimal_observable(tmsv)
    for probe in ("tmsv", "coherent"):
        fock.qfi_eq1(fock.bifrequency_fock_family(0.8, 0.5, 0.3, probe, 30))
        validate.sld_fock_report(0.8, 0.5, 0.3, probe, 30)
    fock.quadrature_moments(fock.bifrequency_fock_family(0.8, 0.5, 0.3, "tmsv", 30)(fock.LAMBDA0))


def _code_lines(code) -> set[int]:
    """The lines on which ``code`` and the code objects nested in it start
    an instruction."""
    lines = {line for _, line in dis.findlinestarts(code) if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            lines |= _code_lines(const)
    return lines


def _body_lines(text: str) -> set[int]:
    """The lines of one module's function bodies that start an instruction,
    less those of docstrings and of ``raise`` statements."""
    tree = ast.parse(text)
    body, skipped = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body.update(range(node.body[0].lineno, node.end_lineno + 1))
        if isinstance(node, ast.Raise):
            skipped.update(range(node.lineno, node.end_lineno + 1))
        owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        if isinstance(node, owners) and ast.get_docstring(node, clean=False) is not None:
            skipped.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return (body & _code_lines(compile(tree, "<module>", "exec"))) - skipped


def unreached() -> dict[str, tuple[int, list[tuple[int, str]]]]:
    """Per module path relative to the repository root, the count of its
    function-body lines and the (line, source) of each that the traffic
    does not reach."""
    for name, module in list(sys.modules.items()):  # a memo hit would hide a line
        if name.startswith("bifrost."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    tracer = trace.Trace(count=1, trace=0, ignoredirs=[sys.prefix, sys.exec_prefix])
    tracer.runfunc(_traffic)
    files = {}
    reached = {
        (files.setdefault(name, pathlib.Path(name).resolve()), line)
        for name, line in tracer.results().counts
    }
    report = {}
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        source = text.splitlines()
        candidates = _body_lines(text)
        missed = sorted(line for line in candidates if (path, line) not in reached)
        report[str(path.relative_to(ROOT))] = (len(candidates), [(line, source[line - 1].strip()) for line in missed])
    return report


def main() -> None:
    report = unreached()
    for path, (_, missed) in report.items():
        for line, text in missed:
            print(f"{path}:{line}: {text}")
    for path, (total, missed) in report.items():
        print(f"{path}: {len(missed)} of {total} lines unreached")


if __name__ == "__main__":
    main()
