"""Command-line surface: formats, determinism, exit codes."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

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
    total = (
        payload["term_covariance"]
        + payload["term_eigenvalue_correction"]
        + payload["term_displacement"]
    )
    assert np.isclose(payload["value"], total, rtol=1e-10)


def test_qfi_domain_error_exit_code():
    result = run_cli("qfi", "--eta1", "0", "--ns", "1", "--nth", "1")
    assert result.returncode == 1
    assert "error" in result.stderr


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


@pytest.mark.parametrize("command, kernel", [("qfi", "qfi_gaussian"), ("sld", "optimal_observable")])
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
    code = (
        "import sys, bifrost.cli; "
        "print(sorted(m for m in ('scipy.stats', 'scipy.sparse') if m in sys.modules))"
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
    ],
    ids=["unknown-key", "bad-json", "not-an-object", "bad-value", "missing-file",
         "bad-flag", "bad-choice"],
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
