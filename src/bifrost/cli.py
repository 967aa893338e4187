"""Command-line interface: sweeps, point evaluations and regression checks.

Exit codes: 0 success, 1 usage or domain error, 2 I/O error, 3 regression
failure. Numeric output is byte-deterministic: floats are printed with 17
significant digits, rows in a fixed parameter-major order, LF line endings.
Grids run serially; the environment variable BIFROST_THREADS is accepted and
ignored, since a thread pool was measured slower than one thread.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .protocols import (
    BiFrequencyParams,
    bifrequency_advantage,
    bifrequency_received_state,
    thermal_equal_occupation,
)
from .qfi import qfi_gaussian
from .sld import jpa_circuit_solve, optimal_observable, sld_coeffs_closed_form
from .validate import full_validation, qi_regression_checks

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_REGRESSION = 3

CSV_HEADER = "eta1,n_s,n_th,h_q,h_c,ratio"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _parse_axis(text: str, log: bool = False) -> list[float]:
    """A single value, or an inclusive grid written min:max:steps."""
    if ":" not in text:
        return [float(text)]
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"range must be min:max:steps, got {text!r}")
    lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    if steps < 1:
        raise ValueError("range needs at least one step")
    if steps == 1:
        return [lo]
    if log:
        if lo <= 0 or hi <= 0:
            raise ValueError("log-spaced ranges need positive bounds")
        return list(np.geomspace(lo, hi, steps))
    return list(np.linspace(lo, hi, steps))


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as an ``error:`` line and exits EXIT_USAGE.

    argparse would exit 2, the code this CLI gives to I/O errors; the
    subcommand parsers inherit the class.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"error: {message}\n")


def _load_config(args: argparse.Namespace, parser: argparse.ArgumentParser):
    """Fold a JSON config file under the command-line flags (flags win).

    A file that cannot be read is an I/O error; bad JSON, a top level that
    is not an object, an unknown key or a value that is not a number, string
    or boolean is a usage error.
    """
    if not args.config:
        return
    subparser = getattr(args, "subparser", parser)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        subparser.exit(EXIT_IO, f"error: cannot read config: {exc}\n")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        subparser.error(f"config is not valid JSON: {exc}")
    if not isinstance(data, dict):
        subparser.error("config must be a JSON object")
    for key, value in data.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            subparser.error(f"unknown config key {key!r}")
        if not isinstance(value, (int, float, str)):
            subparser.error(f"config key {key!r} must be a number, string or boolean")
        if subparser.get_default(attr) == getattr(args, attr):
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                value = str(value)
            setattr(args, attr, value)


def cmd_ratio_grid(args, parser) -> int:
    _load_config(args, parser)
    try:
        etas = _parse_axis(args.eta1)
        n_ss = _parse_axis(args.ns)
        n_ths = _parse_axis(args.nth, log=args.log_nth)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not etas or not n_ss or not n_ths:
        print("error: empty grid", file=sys.stderr)
        return EXIT_USAGE

    points = [(e, s, t) for e in etas for s in n_ss for t in n_ths]

    def cell(point):
        e, s, t = point
        h_q, h_c, ratio = bifrequency_advantage(BiFrequencyParams(e, 0.0, s, t))
        return (e, s, t, h_q, h_c, ratio)

    try:
        rows = [cell(p) for p in points]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.format == "csv":
        lines = [CSV_HEADER] + [",".join(_fmt(v) for v in row) for row in rows]
        payload = "\n".join(lines) + "\n"
    else:
        keys = ("eta1", "n_s", "n_th", "h_q", "h_c", "ratio")
        payload = json.dumps(
            [dict(zip(keys, (float(_fmt(v)) for v in row))) for row in rows], indent=2
        ) + "\n"

    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_IO
    else:
        sys.stdout.write(payload)
    return EXIT_OK


def _point_params(args, parser) -> BiFrequencyParams:
    _load_config(args, parser)
    return BiFrequencyParams(float(args.eta1), 0.0, float(args.ns), float(args.nth))


def cmd_qfi(args, parser) -> int:
    try:
        params = _point_params(args, parser)
        family = bifrequency_received_state(params, args.probe)
        result = qfi_gaussian(family)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(
        json.dumps(
            {
                "eta1": params.eta1,
                "n_s": params.n_s,
                "n_th": params.n_th,
                "probe": args.probe,
                "value": result.value,
                "nu_plus": result.nu_plus,
                "nu_minus": result.nu_minus,
                "term_covariance": result.term_covariance,
                "term_eigenvalue_correction": result.term_eigenvalue_correction,
                "term_displacement": result.term_displacement,
            },
            indent=2,
        )
    )
    return EXIT_OK


def cmd_sld(args, parser) -> int:
    try:
        params = _point_params(args, parser)
        family = bifrequency_received_state(params, "tmsv")
        numeric = optimal_observable(family)
        closed = sld_coeffs_closed_form(params.eta1, params.n_s, params.n_th)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    deviation = max(
        abs(a - b) for a, b in zip(numeric.as_tuple(), closed.as_tuple())
    )
    print(
        json.dumps(
            {
                "eta1": params.eta1,
                "n_s": params.n_s,
                "n_th": params.n_th,
                "numeric": dict(zip(("l11", "l22", "l12", "l0"), numeric.as_tuple())),
                "closed_form": dict(zip(("l11", "l22", "l12", "l0"), closed.as_tuple())),
                "max_abs_deviation": deviation,
            },
            indent=2,
        )
    )
    return EXIT_OK


def _report(checks) -> int:
    worst = 0.0
    failed = 0
    for check in checks:
        print(check.line())
        worst = max(worst, check.deviation)
        failed += 0 if check.passed else 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed, max deviation {worst:.3e}")
    return EXIT_OK if failed == 0 else EXIT_REGRESSION


def cmd_qi_check(args, parser) -> int:
    return _report(qi_regression_checks())


def cmd_validate(args, parser) -> int:
    return _report(full_validation(quick=args.quick))


def cmd_thermal_approx(args, parser) -> int:
    try:
        omega1 = 2.0 * np.pi * float(args.ghz) * 1e9
        report = thermal_equal_occupation(
            omega1, float(args.delta_frac) * omega1, float(args.temp)
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
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


def cmd_circuit(args, parser) -> int:
    try:
        solution = jpa_circuit_solve(float(args.ns))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    p = solution.params
    print(
        json.dumps(
            {
                "n_s": float(args.ns),
                "mu": solution.mu,
                "scale": solution.scale,
                "commutator": solution.commutator,
                "converged": solution.converged,
                "params": {
                    "varphi": p.varphi,
                    "theta": p.theta,
                    "r1": p.r1,
                    "r2": p.r2,
                    "theta1": p.theta1,
                    "theta2": p.theta2,
                    "phi": p.phi,
                },
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
    val.add_argument("--quick", action="store_true", help="reduced configs and cutoff")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args, parser)


if __name__ == "__main__":
    sys.exit(main())
