"""Command-line interface: sweeps, point evaluations and regression checks.

Exit codes: 0 success, 1 usage or domain error, 2 I/O error, 3 regression
failure. ``main`` is the one place that turns a ValueError or an
ArithmeticError of any command into an ``error:`` line and exit 1, and a
failed write to stdout into one and exit 2. A config
file becomes its command's defaults, so a flag on the command line always
wins over the file. Numeric output is byte-deterministic: floats are printed
with 17 significant digits, rows in a fixed parameter-major order, LF line
endings. ``ratio-grid`` evaluates the closed forms once, as numpy arrays
over the broadcast axes (``protocols.advantage_map``), so a grid with a
domain or float-range error writes nothing. It then formats and writes the
rows CHUNK_ROWS at a time, each axis value formatted once, so its memory
does not grow with the output text. An I/O error while writing, to the
output file or to stdout, exits 2 and may leave a partial output. Its
bytes equal those of one scalar ``bifrequency_advantage`` call and one
format call per value. The environment variable BIFROST_THREADS is accepted and ignored, since a
thread pool was measured slower than one thread. The regression checks,
and the Fock oracle behind them, are imported only by the commands that run
them, so the other commands never load that code.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import sys

import numpy as np

from .protocols import (
    BiFrequencyParams,
    advantage_map,
    bifrequency_received_state,
    thermal_equal_occupation,
)
from .sld import jpa_circuit_solve, optimal_observable, qfi_result, sld_coeffs_closed_form

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_REGRESSION = 3

CSV_HEADER = "eta1,n_s,n_th,h_q,h_c,ratio"
# ratio-grid formats and writes this many rows at a time, so its memory
# holds one chunk's text, not the whole output's: on the 30,000-row map,
# 1,024 rows peak 0.7 MB above the map itself and 4,096 rows 3 MB, at the
# same speed
CHUNK_ROWS = 1024
# per format: the three axis fields, the three value fields of a row, and
# the text before the first row, between rows and after the last
GRID_FORMATS = {
    "csv": (("%.17g,",) * 3, "%.17g,%.17g,%.17g", CSV_HEADER + "\n", "\n", "\n"),
    "json": (
        ('  {\n    "eta1": %r,\n', '    "n_s": %r,\n', '    "n_th": %r,\n'),
        '    "h_q": %r,\n    "h_c": %r,\n    "ratio": %r\n  }',
        "[\n",
        ",\n",
        "\n]\n",
    ),
}


def _parse_axis(text: str, log: bool = False) -> np.ndarray:
    """A single value, or an inclusive grid written min:max:steps, whose
    values must all be finite: a bound or a span outside the float range is
    a ValueError."""
    if ":" not in text:
        return np.array([float(text)])
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"range must be min:max:steps, got {text!r}")
    lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    if steps < 1:
        raise ValueError("range needs at least one step")
    if steps == 1:
        return np.array([lo])
    if log and (lo <= 0 or hi <= 0):
        raise ValueError("log-spaced ranges need positive bounds")
    with np.errstate(over="ignore", invalid="ignore"):
        axis = np.geomspace(lo, hi, steps) if log else np.linspace(lo, hi, steps)
    if not np.isfinite(axis).all():
        raise ValueError(f"range {text!r} has values outside the float range")
    return axis


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as an ``error:`` line and exits EXIT_USAGE.

    argparse would exit 2, the code this CLI gives to I/O errors; the
    subcommand parsers inherit the class.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"error: {message}\n")


def _config_value(key: str, value, action: argparse.Action, subparser):
    """A config value checked as its flag would be: a switch takes a JSON
    boolean, any other flag a number or string, as text within the flag's
    ``choices``. argparse applies the flag's ``type`` to a text default when
    it parses again."""
    if action.nargs == 0:
        if not isinstance(value, bool):
            subparser.error(f"config key {key!r} must be a JSON boolean, got {value!r}")
        return value
    if isinstance(value, bool):
        subparser.error(f"config key {key!r} must be a number or string, got {value!r}")
    text = value if isinstance(value, str) else str(value)
    if action.choices is not None and text not in action.choices:
        choices = ", ".join(map(repr, action.choices))
        subparser.error(f"config key {key!r}: invalid choice: {text!r} (choose from {choices})")
    return text


def _load_config(path: str, subparser: argparse.ArgumentParser) -> dict:
    """The values of a JSON config file, keyed by their flags' ``dest``.

    A file that cannot be read is an I/O error; bad JSON, a top level that
    is not an object, an unknown key or a value its flag would reject is a
    usage error.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        subparser.exit(EXIT_IO, f"error: cannot read config: {exc}\n")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        subparser.error(f"config is not valid JSON: {exc}")
    if not isinstance(data, dict):
        subparser.error("config must be a JSON object")
    flags = {a.dest: a for a in subparser._actions if a.option_strings}
    del flags["help"]
    values = {}
    for key, value in data.items():
        attr = key.replace("-", "_")
        if attr not in flags:
            subparser.error(f"unknown config key {key!r}")
        if not isinstance(value, (int, float, str)):
            subparser.error(f"config key {key!r} must be a number, string or boolean")
        values[attr] = _config_value(key, value, flags[attr], subparser)
    return values


def _write_grid(out, axes, columns, fmt: str) -> None:
    """Write the rows of ``columns`` (h_q, h_c, ratio; flat, etas-major)
    over ``axes`` to the text stream ``out``, CHUNK_ROWS rows per write.

    Each axis value is formatted once, as its part of the rows' prefixes.
    JSON rows are ``json.dumps(..., indent=2)``'s own layout with ``%r``
    fields, the same bytes, since every value is a finite float and json
    writes a finite float as ``float.__repr__``.
    """
    axis_fmts, value_fmt, head, sep, tail = GRID_FORMATS[fmt]
    texts = [[f % v for v in axis.tolist()] for f, axis in zip(axis_fmts, axes)]
    prefixes = (e + s + t for e, s, t in itertools.product(*texts))
    out.write(head)
    for start in range(0, columns[0].size, CHUNK_ROWS):
        values = zip(*(column[start : start + CHUNK_ROWS].tolist() for column in columns))
        # values first: zip stops on them without drawing a prefix of the next chunk
        rows = [p + value_fmt % v for v, p in zip(values, prefixes)]
        out.write((sep if start else "") + sep.join(rows))
    out.write(tail)


def cmd_ratio_grid(args) -> int:
    axes = (_parse_axis(args.eta1), _parse_axis(args.ns), _parse_axis(args.nth, log=args.log_nth))
    columns = [column.ravel() for column in advantage_map(*axes)]
    if not args.out:
        _write_grid(sys.stdout, axes, columns, args.format)
        return EXIT_OK
    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            _write_grid(fh, axes, columns, args.format)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _point_params(args) -> BiFrequencyParams:
    return BiFrequencyParams(float(args.eta1), 0.0, float(args.ns), float(args.nth))


def _print_point(params: BiFrequencyParams, **fields) -> int:
    """Print the operating point and ``fields`` as one JSON object."""
    point = {"eta1": params.eta1, "n_s": params.n_s, "n_th": params.n_th}
    print(json.dumps({**point, **fields}, indent=2))
    return EXIT_OK


def cmd_qfi(args) -> int:
    params = _point_params(args)
    result = qfi_result(bifrequency_received_state(params, args.probe))
    return _print_point(params, probe=args.probe, **dataclasses.asdict(result))


def cmd_sld(args) -> int:
    params = _point_params(args)
    # first: at the vacuum it names the missing photons
    closed = sld_coeffs_closed_form(params.eta1, params.n_s, params.n_th)
    numeric = optimal_observable(bifrequency_received_state(params, "tmsv"))
    deviation = max(abs(a - b) for a, b in zip(numeric.as_tuple(), closed.as_tuple()))
    return _print_point(
        params,
        numeric=dataclasses.asdict(numeric),
        closed_form=dataclasses.asdict(closed),
        max_abs_deviation=deviation,
    )


def _report(checks) -> int:
    worst = 0.0
    failed = 0
    for check in checks:
        print(check.line())
        worst = max(worst, check.deviation)
        failed += 0 if check.passed else 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed, max deviation {worst:.3e}")
    return EXIT_OK if failed == 0 else EXIT_REGRESSION


def cmd_qi_check(args) -> int:
    from .validate import qi_regression_checks

    return _report(qi_regression_checks())


def cmd_validate(args) -> int:
    from .validate import full_validation

    return _report(full_validation(quick=args.quick))


def cmd_thermal_approx(args) -> int:
    omega1 = 2.0 * np.pi * float(args.ghz) * 1e9
    report = thermal_equal_occupation(omega1, float(args.delta_frac) * omega1, float(args.temp))
    print(
        json.dumps(
            {
                "omega1_rad_per_s": report.omega1,
                "delta_omega_rad_per_s": report.delta_omega,
                "temperature_K": report.temperature,
                "occupation": report.occupation,
                "ratio": report.ratio,
                "first_order": report.first_order,
                "rel_error": report.rel_error,
            },
            indent=2,
        )
    )
    return EXIT_OK


def cmd_circuit(args) -> int:
    solution = jpa_circuit_solve(float(args.ns))
    print(
        json.dumps(
            {
                "n_s": float(args.ns),
                "mu": solution.mu,
                "scale": solution.scale,
                "commutator": solution.commutator,
                "converged": solution.converged,
                "params": dataclasses.asdict(solution.params),
                "residuals": {k: float(v) for k, v in solution.residuals.items()},
            },
            indent=2,
        )
    )
    return EXIT_OK if solution.converged else EXIT_REGRESSION


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bifrost",
        description="QFI sweeps and regression checks for lossy bosonic sensing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    grid = sub.add_parser("ratio-grid", help="advantage ratio over a parameter grid")
    grid.add_argument("--eta1", default="0.9", help="value or min:max:steps")
    grid.add_argument("--ns", default="1.0", help="value or min:max:steps")
    grid.add_argument("--nth", default="1.0", help="value or min:max:steps")
    grid.add_argument("--log-nth", action="store_true", help="log-spaced thermal axis")
    grid.add_argument("--out", default="", help="output path (default: stdout)")
    grid.add_argument("--format", default="csv", choices=("csv", "json"))
    grid.add_argument("--config", default="", help="JSON config file; flags override")
    grid.set_defaults(func=cmd_ratio_grid, subparser=grid)

    for name, func, probe_flag in (
        ("qfi", cmd_qfi, True),
        ("sld", cmd_sld, False),
    ):
        point = sub.add_parser(name, help=f"{name} at a single operating point")
        point.add_argument("--eta1", default="0.9")
        point.add_argument("--ns", default="1.0")
        point.add_argument("--nth", default="1.0")
        if probe_flag:
            point.add_argument("--probe", default="tmsv", choices=("tmsv", "coherent"))
        point.add_argument("--config", default="", help="JSON config file; flags override")
        point.set_defaults(func=func, subparser=point)

    qi = sub.add_parser("qi-check", help="quantum-illumination regression suite")
    qi.set_defaults(func=cmd_qi_check)

    val = sub.add_parser("validate", help="Fock-oracle equivalence suite")
    val.add_argument("--quick", action="store_true", help="reduced configs")
    val.set_defaults(func=cmd_validate)

    th = sub.add_parser("thermal-approx", help="equal-bath-occupation accuracy report")
    th.add_argument("--ghz", default="5.0", help="reference frequency nu_1 in GHz")
    th.add_argument("--temp", default="300.0", help="temperature in K")
    th.add_argument("--delta-frac", default="0.2", help="frequency gap as a fraction of omega_1")
    th.set_defaults(func=cmd_thermal_approx)

    circ = sub.add_parser("circuit", help="observable-circuit parameter solve")
    circ.add_argument("--ns", default="1.0")
    circ.set_defaults(func=cmd_circuit)

    return parser


def main(argv=None) -> int:
    """Parse ``argv`` and run its command. A config file becomes the
    command's defaults and ``argv`` is parsed again, so a flag given on the
    command line always wins over the file. A domain error or a numerical
    failure of any command is reported here, as one ``error:`` line with
    exit code EXIT_USAGE, and so is a failed write to stdout, with EXIT_IO."""
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse drops the value of --flag=-- and leaves an empty list
    for dest, value in vars(args).items():
        if value == []:
            parser.error(f"argument --{dest.replace('_', '-')}: expected one argument")
    if getattr(args, "config", ""):
        args.subparser.set_defaults(**_load_config(args.config, args.subparser))
        args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        # what stdout still buffers cannot be written either; without this
        # the interpreter's flush at exit fails once more
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write standard output: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
