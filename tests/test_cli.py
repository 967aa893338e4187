"""Command-line surface: formats, determinism, exit codes."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import bifrost as bf
from bifrost.protocols import BiFrequencyParams, bifrequency_advantage, bifrequency_received_state

CLI = [sys.executable, "-m", "bifrost.cli"]


def run_cli(*args, env_extra=None):
    env = os.environ.copy()
    env.pop("BIFROST_THREADS", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=env
    )


def test_ratio_grid_header_and_order(tmp_path):
    out = tmp_path / "grid.csv"
    result = run_cli(
        "ratio-grid", "--eta1", "0.8:0.9:2", "--ns", "0.5:1.0:2", "--nth", "1.0",
        "--out", str(out),
    )
    assert result.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "eta1,n_s,n_th,h_q,h_c,ratio"
    etas = [float(line.split(",")[0]) for line in lines[1:]]
    assert etas == sorted(etas)
    assert len(lines) == 5


def test_ratio_grid_contains_enhancement_point(tmp_path):
    out = tmp_path / "grid.csv"
    run_cli("ratio-grid", "--eta1", "0.95", "--ns", "1", "--nth", "1", "--out", str(out))
    row = out.read_text().splitlines()[1].split(",")
    assert float(row[5]) > 1.0


def test_ratio_grid_zero_signal_column(tmp_path):
    out = tmp_path / "grid.csv"
    run_cli(
        "ratio-grid", "--eta1", "0.5:0.9:3", "--ns", "0", "--nth", "0.5:5:4",
        "--out", str(out),
    )
    for line in out.read_text().splitlines()[1:]:
        assert abs(float(line.split(",")[5]) - 1.0) < 1e-9


def test_ratio_grid_byte_determinism(tmp_path):
    args = ["ratio-grid", "--eta1", "0.6:0.9:4", "--ns", "0.3:2:5", "--nth",
            "0.01:10:5", "--log-nth"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(*args, "--out", str(a))
    run_cli(*args, "--out", str(b), env_extra={"BIFROST_THREADS": "4"})
    assert a.read_bytes() == b.read_bytes()


def test_ratio_grid_empty_range_is_usage_error():
    result = run_cli("ratio-grid", "--eta1", "0.5:0.9:0", "--ns", "1", "--nth", "1")
    assert result.returncode == 1


def test_ratio_grid_io_error(tmp_path):
    result = run_cli(
        "ratio-grid", "--eta1", "0.5", "--ns", "1", "--nth", "1",
        "--out", str(tmp_path / "missing" / "grid.csv"),
    )
    assert result.returncode == 2


def test_ratio_grid_json_format():
    result = run_cli("ratio-grid", "--eta1", "0.9", "--ns", "1", "--nth", "1",
                     "--format", "json")
    rows = json.loads(result.stdout)
    assert rows[0]["eta1"] == 0.9
    assert set(rows[0]) == {"eta1", "n_s", "n_th", "h_q", "h_c", "ratio"}


def _row_by_row_axis(text, log=False):
    """An axis as the row-by-row sweep read it: one float, or numpy's grid values."""
    if ":" not in text:
        return [float(text)]
    lo, hi, steps = text.split(":")
    return list((np.geomspace if log else np.linspace)(float(lo), float(hi), int(steps)))


def _row_by_row(eta1, ns, nth, log_nth, fmt):
    """The ratio-grid payload as a loop writes it: one scalar
    bifrequency_advantage call per row and one format call per value."""
    rows = [
        (e, s, t) + bifrequency_advantage(BiFrequencyParams(e, 0.0, s, t))
        for e in _row_by_row_axis(eta1)
        for s in _row_by_row_axis(ns)
        for t in _row_by_row_axis(nth, log_nth)
    ]
    text = [[format(float(v), ".17g") for v in row] for row in rows]
    if fmt == "csv":
        return "\n".join(["eta1,n_s,n_th,h_q,h_c,ratio"] + [",".join(r) for r in text]) + "\n"
    keys = ("eta1", "n_s", "n_th", "h_q", "h_c", "ratio")
    return json.dumps([dict(zip(keys, map(float, r))) for r in text], indent=2) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "eta1, ns, nth, log_nth",
    [
        ("0.75:0.95:3", "0.01:2:100", "0.01:100:100", True),
        ("0.05:0.95:7", "0.1:5:40", "0:50:60", False),
    ],
    ids=["benchmark-grid", "linear-nth"],
)
def test_ratio_grid_bytes_match_row_by_row_sweep(eta1, ns, nth, log_nth, fmt, tmp_path):
    from bifrost import cli

    out = tmp_path / "grid"
    argv = ["ratio-grid", "--eta1", eta1, "--ns", ns, "--nth", nth, "--format", fmt,
            "--out", str(out)] + (["--log-nth"] if log_nth else [])
    assert cli.main(argv) == 0
    assert out.read_bytes() == _row_by_row(eta1, ns, nth, log_nth, fmt).encode()


@pytest.mark.parametrize(
    "flags",
    [
        ["--eta1", "1.5"],
        ["--eta1", "0"],
        ["--eta1", "0.5:1:3"],
        ["--ns", "-1"],
        ["--ns", "0:1:2", "--nth", "0:1:2"],
    ],
    ids=["eta1-above-one", "eta1-zero", "eta1-range-ends-at-one", "negative-signal", "no-photons"],
)
def test_ratio_grid_domain_error_is_that_of_first_failing_row(flags, capsys):
    from bifrost import cli

    axes = {"--eta1": "0.9", "--ns": "1.0", "--nth": "1.0"}
    axes.update(zip(flags[::2], flags[1::2]))
    with pytest.raises(ValueError) as expected:
        _row_by_row(axes["--eta1"], axes["--ns"], axes["--nth"], False, "csv")
    assert cli.main(["ratio-grid"] + flags) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {expected.value}\n"


@pytest.mark.parametrize(
    "command, flag, value",
    [("ratio-grid", "--ns", "nan"), ("ratio-grid", "--nth", "inf"),
     ("qfi", "--ns", "nan"), ("qfi", "--nth", "inf"), ("circuit", "--ns", "nan")],
)
def test_non_finite_photon_numbers_exit_with_one_error_line(command, flag, value):
    result = run_cli(command, flag, value)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == "error: photon numbers must be finite and nonnegative\n"


@pytest.mark.parametrize(
    "flags, named",
    [(["--ns", "1e200"], "n_s = 1e+200"), (["--nth", "1e-300"], "occupation 1e-300"),
     (["--nth", "1e-300:1:2"], "occupation 1e-300"), (["--nth", "1e200"], "n_th = 1e+200")],
    ids=["power-overflows", "thermal-part-0-over-0", "array-0-over-0", "thermal-overflows"],
)
def test_ratio_grid_arithmetic_failure_is_an_error_line(flags, named):
    result = run_cli("ratio-grid", *flags)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and len(result.stderr.splitlines()) == 1
    assert named in result.stderr


@pytest.mark.parametrize(
    "flags",
    [["--eta1", "1e-320", "--ns", "1", "--nth", "1"], ["--eta1", "1e-300", "--ns", "1e300", "--nth", "0.5"]],
    ids=["subnormal-reflectivity", "huge-probe"],
)
def test_non_finite_qfi_is_an_error_line(flags):
    """A QFI that leaves the float range inside the domain is reported as
    one error line with exit code 1, never printed as Infinity."""
    result = run_cli("qfi", *flags, "--probe", "coherent")
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == "error: the QFI leaves the float range: inf\n"


def test_config_file_with_flag_override(tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"eta1": 0.5, "ns": 2.0, "nth": 1.0}))
    result = run_cli(
        "ratio-grid", "--config", str(config), "--nth", "3.0", "--format", "json"
    )
    rows = json.loads(result.stdout)
    assert rows[0]["eta1"] == 0.5
    assert rows[0]["n_s"] == 2.0
    assert rows[0]["n_th"] == 3.0  # flag wins over the file


def test_qfi_point_output():
    result = run_cli("qfi", "--eta1", "0.75", "--ns", "1", "--nth", "1",
                     "--probe", "tmsv")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert list(payload) == [
        "eta1", "n_s", "n_th", "probe", "value", "nu_plus", "nu_minus",
        "term_covariance", "term_displacement",
    ]
    total = payload["term_covariance"] + payload["term_displacement"]
    assert np.isclose(payload["value"], total, rtol=1e-10)


# the edge points of the domain where the symplectic-invariant route loses
# digits or raises, and the corners (eta1 = 1 - 1e-6, n_th = 1e-6) where the
# stored moments themselves cannot resolve 1e-9
QFI_EDGE_POINTS = [
    ((0.8053, 2.86e-6, 1e-6), "coherent"),
    ((0.5, 1e-6, 1e-6), "tmsv"),
    ((0.999999, 1.0, 1.0), "tmsv"),
    ((0.999999, 1.0, 1.0), "coherent"),
    ((0.999999, 1e6, 1e-6), "coherent"),
]
QFI_STORED_MOMENT_CORNERS = [
    ((0.999999, 1e6, 1e-6), "tmsv"),
    ((0.999999, 1e-6, 1e-6), "tmsv"),
    ((0.999999, 1e-6, 1e-6), "coherent"),
]


@pytest.mark.parametrize(
    "point, probe, corner",
    [
        pytest.param(point, probe, corner, id="-".join([probe, *map(repr, point)]))
        for points, corner in ((QFI_EDGE_POINTS, False), (QFI_STORED_MOMENT_CORNERS, True))
        for point, probe in points
    ],
)
def test_qfi_at_domain_edges(point, probe, corner, capsys):
    """`bifrost qfi` exits 0 at the edge points within 1e-9 of the 50-digit
    closed forms; at the stored-moment corners within 1e-6 plus 8 times the
    rounding bound of those moments."""
    from bifrost import cli
    from closed_form_reference import mp_closed_form, rounding_bound

    eta1, n_s, n_th = point
    argv = ["qfi", "--eta1", repr(eta1), "--ns", repr(n_s), "--nth", repr(n_th), "--probe", probe]
    assert cli.main(argv) == 0
    value = json.loads(capsys.readouterr().out)["value"]
    closed = bf.hq_closed_form if probe == "tmsv" else bf.hc_closed_form
    ref = mp_closed_form(closed, eta1, n_s, n_th)
    tol = 1e-9
    if corner:
        family = bifrequency_received_state(BiFrequencyParams(eta1, 0.0, n_s, n_th), probe)
        tol = 1e-6 + 8.0 * rounding_bound(family)
    assert float(abs(value - ref) / ref) < tol, (value, ref, tol)


def test_qfi_symplectic_eigenvalues_at_a_symmetric_point(capsys):
    """At zero gap both received modes of the entangled probe see the same
    channel, so nu_plus = nu_minus = sqrt((a - c)(a + c)) from the covariance
    entries a = Sigma_11 and c = Sigma_13, up to a few ulps."""
    from bifrost import cli

    assert cli.main(["qfi", "--eta1", "0.75", "--ns", "1", "--nth", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    cov = bifrequency_received_state(BiFrequencyParams(0.75, 0.0, 1.0, 1.0), "tmsv").eval(0.0).cov
    a, c = cov[0, 0], cov[0, 2]
    nu = np.sqrt((a - c) * (a + c))
    assert payload["nu_plus"] == pytest.approx(payload["nu_minus"], rel=1e-14, abs=0.0)
    assert payload["nu_plus"] == pytest.approx(nu, rel=1e-14, abs=0.0)
    assert payload["nu_minus"] == pytest.approx(nu, rel=1e-14, abs=0.0)


def test_qfi_domain_error_exit_code():
    """The reflectivity edges, where the family has no derivative."""
    for eta1 in ("0", "1"):
        result = run_cli("qfi", "--eta1", eta1, "--ns", "1", "--nth", "1")
        assert result.returncode == 1
        assert result.stderr.startswith("error: ")


def test_sld_point_output():
    result = run_cli("sld", "--eta1", "0.75", "--ns", "1", "--nth", "1")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["max_abs_deviation"] < 1e-8
    assert np.isclose(payload["numeric"]["l11"], payload["closed_form"]["l11"])


def test_qi_check_passes():
    result = run_cli("qi-check")
    assert result.returncode == 0
    assert "checks passed" in result.stdout


def test_thermal_approx_output():
    result = run_cli("thermal-approx", "--ghz", "5", "--temp", "300",
                     "--delta-frac", "0.2")
    payload = json.loads(result.stdout)
    assert abs(payload["rel_error"] - 0.04) < 0.005
    assert abs(payload["occupation"] - 1250.0) < 15.0


@pytest.mark.parametrize("argv", [["--temp", "1e-300"], ["--ghz", "1e12"]], ids=["cold", "optical"])
def test_thermal_approx_far_above_the_bath_energy_prints_finite_json(argv):
    """hbar omega1 / (k_B T) far above 710: finite JSON, no warning."""
    result = run_cli("thermal-approx", *argv)
    assert result.returncode == 0
    assert result.stderr == ""
    payload = json.loads(result.stdout, parse_constant=lambda name: pytest.fail(name))
    assert all(np.isfinite(value) for value in payload.values())
    assert payload["occupation"] == 0.0
    assert 0.0 < payload["ratio"] < 1e-7


def test_circuit_output():
    result = run_cli("circuit", "--ns", "1")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["converged"]
    assert payload["mu"] == pytest.approx(np.sqrt(1.5))
    assert max(payload["residuals"].values()) < 1e-9


def test_validate_quick_passes():
    result = run_cli("validate", "--quick")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "checks passed" in result.stdout


def test_regression_failure_exit_code():
    from bifrost.cli import _report
    from bifrost.validate import Check

    assert _report([Check("synthetic", 1.0, 1e-3)]) == 3
    assert _report([Check("synthetic", 1e-6, 1e-3)]) == 0


def test_qfi_where_discriminant_rounds_negative_exits_zero():
    result = run_cli("qfi", "--eta1", "0.5", "--ns", "100", "--nth", "0.001")
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["value"] > 0.0


@pytest.mark.parametrize("command, kernel", [("qfi", "qfi_result"), ("sld", "optimal_observable")])
def test_numerical_instability_is_an_error_line(command, kernel, monkeypatch, capsys):
    from bifrost import cli
    from bifrost.errors import NumericalInstabilityError

    def unstable(family):
        raise NumericalInstabilityError("synthetic instability")

    monkeypatch.setattr(cli, kernel, unstable)
    assert cli.main([command, "--eta1", "0.5", "--ns", "1", "--nth", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: synthetic instability")
    assert "Traceback" not in err


def test_import_leaves_scipy_stats_and_sparse_out():
    """No scipy module at all, on import or after running ``validate
    --quick``, ``qi-check``, ``qfi`` for both probes and ``sld``: numpy is
    the one runtime dependency."""
    code = (
        "import contextlib, io, sys\n"
        "from bifrost import cli\n"
        "commands = [['validate', '--quick'], ['qi-check'], ['qfi'],\n"
        "            ['qfi', '--probe', 'coherent'], ['sld']]\n"
        "for argv in commands:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "config_text, flags, code, message",
    [
        ('{"probe": "tmsv"}', [], 1, "unknown config key 'probe'"),
        ('{"eta1": ', [], 1, "config is not valid JSON"),
        ('[0.5]', [], 1, "config must be a JSON object"),
        ('{"eta1": [0.5]}', [], 1, "must be a number, string or boolean"),
        (None, [], 2, "cannot read config"),
        ('{"eta1": 0.5}', ["--bogus"], 1, "unrecognized arguments: --bogus"),
        ('{"eta1": 0.5}', ["--format", "xml"], 1, "invalid choice: 'xml'"),
        ('{"format": "xml"}', [], 1, "config key 'format': invalid choice: 'xml'"),
        ('{"log-nth": "false"}', [], 1, "config key 'log-nth' must be a JSON boolean"),
    ],
    ids=["unknown-key", "bad-json", "not-an-object", "bad-value", "missing-file",
         "bad-flag", "bad-choice", "config-bad-choice", "config-switch-not-boolean"],
)
def test_config_and_flag_errors_exit_with_documented_codes(
    config_text, flags, code, message, tmp_path, capsys
):
    from bifrost import cli

    config = tmp_path / "c.json"
    if config_text is not None:
        config.write_text(config_text)
    with pytest.raises(SystemExit) as exc:
        cli.main(["ratio-grid", "--config", str(config)] + flags)
    assert exc.value.code == code
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error: ")]
    assert len(errors) == 1 and message in errors[0]
    assert "Traceback" not in err


def test_given_flag_wins_over_config_at_its_default(tmp_path, capsys):
    """A flag on the command line wins over the config file even when its
    value is the flag's default; a flag not given takes the file's value."""
    from bifrost import cli

    config = tmp_path / "c.json"
    config.write_text('{"format": "json"}')
    assert cli.main(["ratio-grid", "--format", "csv", "--config", str(config)]) == 0
    assert capsys.readouterr().out.startswith(cli.CSV_HEADER + "\n")
    config.write_text('{"ns": 2}')
    assert cli.main(["qfi", "--ns", "1.0", "--config", str(config)]) == 0
    assert json.loads(capsys.readouterr().out)["n_s"] == 1.0
    assert cli.main(["qfi", "--config", str(config)]) == 0
    assert json.loads(capsys.readouterr().out)["n_s"] == 2.0


@pytest.mark.parametrize("error", [ValueError, ArithmeticError])
@pytest.mark.parametrize(
    "argv, module, name",
    [(["validate", "--quick"], "bifrost.validate", "full_validation"),
     (["qi-check"], "bifrost.validate", "qi_regression_checks"),
     (["thermal-approx"], "bifrost.cli", "thermal_equal_occupation"),
     (["circuit"], "bifrost.cli", "jpa_circuit_solve")],
    ids=["validate", "qi-check", "thermal-approx", "circuit"],
)
def test_every_command_reports_a_raised_error_as_one_line(
    argv, module, name, error, monkeypatch, capsys
):
    from bifrost import cli

    def failing(*args, **kwargs):
        raise error("synthetic failure")

    monkeypatch.setattr(f"{module}.{name}", failing)
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: synthetic failure\n"


@pytest.mark.parametrize(
    "argv, message",
    [(["thermal-approx", "--ghz", "nan"], "frequency and temperature must be positive and finite"),
     (["thermal-approx", "--temp", "inf"], "frequency and temperature must be positive and finite"),
     (["thermal-approx", "--delta-frac", "nan"], "frequency gap must be nonnegative and finite")],
    ids=["ghz-nan", "temp-inf", "delta-frac-nan"],
)
def test_non_finite_thermal_inputs_exit_with_one_error_line(argv, message, capsys):
    from bifrost import cli

    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_only_main_catches_domain_errors():
    """``main`` is the one place in the CLI that turns a ValueError or an
    ArithmeticError into an exit code, and no command takes the parser: a
    command that grows its own error path fails here. (The config file's
    decode errors are caught by their own names, as usage errors.)"""
    from bifrost import cli

    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    catching = set()
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef):
            continue
        if function.name.startswith("cmd_"):
            assert [a.arg for a in function.args.args] == ["args"], function.name
        for handler in ast.walk(function):
            if isinstance(handler, ast.ExceptHandler) and handler.type is not None:
                names = {n.id for n in ast.walk(handler.type) if isinstance(n, ast.Name)}
                if names & {"ValueError", "ArithmeticError"}:
                    catching.add(function.name)
    assert catching == {"main"}
