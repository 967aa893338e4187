"""Command-line surface: formats, determinism, exit codes."""

import ast
import itertools
import json
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

import bifrost as bf
from bifrost.protocols import BiFrequencyParams, bifrequency_advantage, bifrequency_received_state

# a RuntimeWarning fails a CLI subprocess as pyproject's policy fails a test
CLI = [sys.executable, "-W", "error::RuntimeWarning", "-m", "bifrost.cli"]
# the error line of a photon number outside the domain, 0 or [1e-6, 1e6]
DOMAIN_ERROR = "error: photon numbers must be 0 or lie in [1e-06, 1e+06]\n"


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


# a grid of 2,163 rows: two whole chunks of cli.CHUNK_ROWS and part of a third
SEVERAL_CHUNKS = ("0.5:0.9:3", "0.1:2:7", "0.01:10:103", True)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "eta1, ns, nth, log_nth",
    [
        ("0.75:0.95:3", "0.01:2:100", "0.01:100:100", True),
        ("0.05:0.95:7", "0.1:5:40", "0:50:60", False),
        SEVERAL_CHUNKS,
        ("0.9", "1.0", "1.0", False),
        ("0.9", "1.0", "-0.0", False),
    ],
    ids=["benchmark-grid", "linear-nth", "several-chunks", "one-row", "negative-zero-bath"],
)
def test_ratio_grid_bytes_match_row_by_row_sweep(eta1, ns, nth, log_nth, fmt, tmp_path):
    from bifrost import cli

    out = tmp_path / "grid"
    argv = ["ratio-grid", "--eta1", eta1, "--ns", ns, "--nth", nth, "--format", fmt,
            "--out", str(out)] + (["--log-nth"] if log_nth else [])
    assert cli.main(argv) == 0
    assert out.read_bytes() == _row_by_row(eta1, ns, nth, log_nth, fmt).encode()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_ratio_grid_to_stdout_matches_row_by_row_sweep(fmt, capsys):
    """Written to stdout over two whole chunks of CHUNK_ROWS rows and part
    of a third, the rows are the bytes of the row-by-row sweep."""
    from bifrost import cli

    eta1, ns, nth, log_nth = SEVERAL_CHUNKS
    rows = np.prod([len(_row_by_row_axis(axis)) for axis in (eta1, ns, nth)])
    assert 2 * cli.CHUNK_ROWS < rows < 3 * cli.CHUNK_ROWS
    argv = ["ratio-grid", "--eta1", eta1, "--ns", ns, "--nth", nth, "--log-nth", "--format", fmt]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == _row_by_row(eta1, ns, nth, log_nth, fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_ratio_grid_memory_does_not_hold_the_output(fmt, tmp_path):
    """On the benchmark's 30,000-row map, 3.3 MB of CSV and 5.5 MB of JSON,
    cli.main's traced peak stays under 4 MB (1.4 and 1.7 MB measured): the
    closed-form arrays and one chunk's text. Holding the whole output text
    peaked at 18 and 51 MB."""
    import tracemalloc

    from bifrost import cli

    argv = ["ratio-grid", "--eta1", "0.75:0.95:3", "--ns", "0.01:2:100", "--nth",
            "0.01:100:100", "--log-nth", "--format", fmt, "--out", str(tmp_path / "grid")]
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6, peak


def test_ratio_grid_domain_error_leaves_the_output_file_untouched(tmp_path, capsys):
    from bifrost import cli

    out = tmp_path / "grid.csv"
    out.write_bytes(b"an earlier grid\n")
    assert cli.main(["ratio-grid", "--eta1", "0.5:1.5:3", "--out", str(out)]) == 1
    assert out.read_bytes() == b"an earlier grid\n"
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_ratio_grid_full_device_is_one_io_error_line(fmt, capsys):
    from bifrost import cli

    argv = ["ratio-grid", "--eta1", "0.75:0.95:3", "--ns", "0.01:2:100", "--format", fmt,
            "--out", "/dev/full"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write /dev/full: "), lines


def test_ratio_grid_reader_closing_stdout_is_one_io_error_line():
    """A reader that closes the pipe early (``| head -1``) ends the grid
    with exit code 2 and one error line, not a traceback."""
    argv = ["ratio-grid", "--eta1", "0.75:0.95:3", "--ns", "0.01:2:100", "--nth", "0.01:100:100"]
    proc = subprocess.Popen(CLI + argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"eta1,n_s,n_th,h_q,h_c,ratio\n"
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 2
    assert stderr == "error: cannot write standard output: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("argv", [["qfi", "--probe", "coherent"], ["circuit"]], ids=["qfi", "circuit"])
def test_point_command_into_a_closed_pipe_is_one_io_error_line(argv):
    """A command whose reader has closed the pipe before it writes exits 2
    with one error line, not a traceback."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(CLI + argv, stdout=write_end, stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.decode() == "error: cannot write standard output: [Errno 32] Broken pipe\n"


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
    assert result.stderr == DOMAIN_ERROR


@pytest.mark.parametrize(
    "flags, named",
    [(["--ns", "1e200"], DOMAIN_ERROR),
     (["--eta1", "0.99999999999", "--nth", "1e-6"], "occupation 1e-06"),
     (["--eta1", "0.99999999999", "--nth", "1e-6:1:2"], "occupation 1e-06"),
     (["--nth", "1e200"], DOMAIN_ERROR),
     (["--eta1", "5e-324", "--ns", "1e-6", "--nth", "0"],
      "the closed forms leave the float range at eta1 = 5e-324, n_s = 1e-06, n_th = 0.0")],
    ids=["power-overflows", "thermal-part-0-over-0", "array-0-over-0", "thermal-overflows",
         "subnormal-reflectivity"],
)
def test_ratio_grid_arithmetic_failure_is_an_error_line(flags, named):
    """Inside the domain, where 1 + 2 n_th (1 - eta1) rounds to 1 (eta1
    within about 5.5e-11 of 1) and where a subnormal eta1 sends a closed
    form's denominator to 0, the grid fails with one error line naming the
    point. The photon numbers of 1e200 at which the powers overflowed lie
    outside the domain and end in its error line."""
    result = run_cli("ratio-grid", *flags)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and len(result.stderr.splitlines()) == 1
    assert named in result.stderr


@pytest.mark.parametrize(
    "flags",
    [["--eta1", "1e-320", "--ns", "1", "--nth", "1"], ["--eta1", "1e-310", "--ns", "1e6", "--nth", "0.5"]],
    ids=["subnormal-reflectivity", "huge-probe"],
)
def test_non_finite_qfi_is_an_error_line(flags):
    """A QFI that leaves the float range inside the domain is reported as
    one error line with exit code 1, never printed as Infinity."""
    result = run_cli("qfi", *flags, "--probe", "coherent")
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == "error: the QFI leaves the float range: inf\n"


@pytest.mark.parametrize("nth", ["0", "1e-300", "1e-6", "1", "1e6", "1e200", "1e300"])
@pytest.mark.parametrize("eta1", ["5e-324", "1e-320"])
def test_displacement_derivative_out_of_range_is_one_error_line(eta1, nth, capsys):
    """At a subnormal eta1 the coherent probe's kept displacement
    derivative, sqrt(2 n_s) / (2 sqrt(eta1)), is at most 3.2e164 inside the
    domain, but at its top, n_s = 1e6, the QFI's displacement term, its
    square, leaves the float range: ``qfi`` ends in one error line, exit
    code 1, with no warning on the way (each would fail the test). A bath
    outside the domain, or the n_s = 1e300 at which the derivative itself
    left the float range, ends in the domain's error line."""
    from bifrost import cli

    in_domain = nth not in ("1e-300", "1e200", "1e300")
    for ns in ("1e6", "1e300"):
        argv = ["qfi", "--eta1", eta1, "--ns", ns, "--nth", nth, "--probe", "coherent"]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        if in_domain and ns != "1e300":
            assert captured.err == "error: the QFI leaves the float range: inf\n"
        else:
            assert captured.err == DOMAIN_ERROR


@pytest.mark.parametrize("nth", ["0", "1e-300"])
def test_sld_quotient_out_of_range_is_one_error_line(nth, capsys):
    """The entangled probe's quotient Q = Z / (1 - lambda_i lambda_j) left
    the float range only at photon numbers outside the domain (eta1 = 1e-310
    with n_s = 1e300), where ``qfi`` now ends in the domain's error line.
    Inside it a pair that is not pure has 1 - lambda_i lambda_j above 1e-13
    and Q stays far inside the float range (4.5e15 at most over a sweep of
    the domain), so at eta1 = 1e-310 and n_s = 1e6 the vacuum bath ends in
    the pure-mode error: one line, exit code 1, with no RuntimeWarning on
    the way."""
    from bifrost import cli

    for ns in ("1e300", "1e6"):
        for probe in ([], ["--probe", "tmsv"]):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert cli.main(["qfi", "--eta1", "1e-310", "--ns", ns, "--nth", nth, *probe]) == 1
            assert [str(w.message) for w in caught] == []
            captured = capsys.readouterr()
            assert captured.out == ""
            if ns == "1e300" or nth != "0":
                assert captured.err == DOMAIN_ERROR
            else:
                assert captured.err.startswith("error: a pure normal mode changes its purity")
                assert len(captured.err.splitlines()) == 1


def test_qfi_near_the_float_range_warns_nothing(capsys):
    """At tiny reflectivities with n_s at the domain's top and far above it,
    for every bath and both probes, ``qfi`` prints its result or one error
    line, never a warning."""
    from bifrost import cli

    for eta1 in ("5e-324", "1e-320", "1e-310", "1e-300"):
        baths = ("0", "1e-300", "1e-6", "1", "1e6", "1e200", "1e300")
        for nth, ns in itertools.product(baths, ("1e6", "1e300")):
            for probe in ("tmsv", "coherent"):
                argv = ["qfi", "--eta1", eta1, "--ns", ns, "--nth", nth, "--probe", probe]
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    code = cli.main(argv)
                err = capsys.readouterr().err
                assert [str(w.message) for w in caught] == [], argv
                assert (code, err) == (0, "") or (
                    code == 1 and err.startswith("error: ") and err.count("\n") == 1
                ), argv


@pytest.mark.parametrize(
    "flags, expected",
    [(["--nth", "5e307"], DOMAIN_ERROR), (["--nth", "8e307"], DOMAIN_ERROR),
     (["--nth", "9e307"], DOMAIN_ERROR), (["--nth", "1.7976931348623157e308"], DOMAIN_ERROR),
     (["--ns", "3e307", "--probe", "tmsv"], DOMAIN_ERROR),
     (["--ns", "5e307", "--probe", "tmsv"], DOMAIN_ERROR),
     (["--ns", "1.7976931348623157e308", "--probe", "tmsv"], DOMAIN_ERROR),
     (["--nth", "1e6"], 0), (["--ns", "1e6", "--probe", "tmsv"], 0)],
    ids=["bath-mean-finite", "bath-sum-overflows", "bath-overflows", "bath-max", "probe-sum-overflows",
         "probe-cosh-overflows", "probe-max", "bath-domain-max", "probe-domain-max"],
)
def test_huge_photon_numbers_warn_nothing(flags, expected, capsys):
    """An input covariance entry, 1 + 2 n_th or about 4 n_s, near the float
    range belongs to a photon number outside the domain: ``qfi`` prints the
    domain's one error line, with no warning. At the domain's top it prints
    a finite result."""
    from bifrost import cli

    for probe in ([], ["--probe", "coherent"]) if "--nth" in flags else ([],):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["qfi", *flags, *probe])
        captured = capsys.readouterr()
        assert [str(w.message) for w in caught] == []
        if expected == 0:
            assert code == 0 and captured.err == ""
            assert np.isfinite(json.loads(captured.out)["value"])
        else:
            assert code == 1 and captured.out == "" and len(captured.err.splitlines()) == 1
            assert captured.err.startswith(expected)


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


@pytest.mark.parametrize("probe", ["tmsv", "coherent"])
def test_qfi_where_discarded_derivatives_overflow_warns_nothing(probe, capsys):
    """At eta1 = 1e-300 with the domain's largest bath, n_th = 1e6, ``qfi``
    prints a finite value with no warning. The n_th = 1e300 at which the
    derivative entries of the traced-out bath modes left the float range
    lies outside the domain and ends in its error line, with no warning."""
    from bifrost import cli

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        argv = ["qfi", "--eta1", "1e-300", "--ns", "0.5", "--nth", "1e6", "--probe", probe]
        assert cli.main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert np.isfinite(json.loads(captured.out)["value"])
        assert cli.main(argv[:-3] + ["1e300", "--probe", probe]) == 1
        assert capsys.readouterr() == ("", DOMAIN_ERROR)


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
    ((0.999999, 1e6, 1e-6), "tmsv"),
]
QFI_STORED_MOMENT_CORNERS = [
    ((0.999999, 1e-6, 1e-6), "tmsv"),
    ((0.999999, 1e-6, 1e-6), "coherent"),
]


@pytest.mark.parametrize(
    "point, probe",
    [
        pytest.param(point, probe, id="-".join([probe, *map(repr, point)]))
        for point, probe in QFI_EDGE_POINTS + QFI_STORED_MOMENT_CORNERS
    ],
)
def test_qfi_at_domain_edges(point, probe, capsys):
    """`bifrost qfi` exits 0 at the edge points within 1e-12 of the 50-digit
    closed forms, the stored-moment corners included: the families supply
    nu - 1 in closed form, so the solve does not read it off the stored
    1 + nu - 1. The corners read 2.0e-13 (``tmsv``) and 3.6e-17
    (``coherent``); read off the stored moments they were 3.3e-5 and
    1.3e-4."""
    from bifrost import cli
    from closed_form_reference import mp_closed_form

    eta1, n_s, n_th = point
    argv = ["qfi", "--eta1", repr(eta1), "--ns", repr(n_s), "--nth", repr(n_th), "--probe", probe]
    assert cli.main(argv) == 0
    value = json.loads(capsys.readouterr().out)["value"]
    closed = bf.hq_closed_form if probe == "tmsv" else bf.hc_closed_form
    ref = mp_closed_form(closed, eta1, n_s, n_th)
    assert float(abs(value - ref) / ref) < 1e-12, (value, ref)


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


def test_sld_outside_the_float_range_is_one_named_error_line(capsys):
    """The closed-form SLD coefficients left the float range only at photon
    numbers outside the domain: there ``sld`` fails before either solve, with
    the domain's one error line, exit code 1 and no warning."""
    from bifrost import cli

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["sld", "--eta1", "1e-300", "--ns", "0.5", "--nth", "1e300"]) == 1
    assert capsys.readouterr() == ("", DOMAIN_ERROR)


def test_sld_at_the_vacuum_is_the_no_photons_error_line(capsys):
    """At n_s = n_th = 0 ``sld`` names the missing photons, as the closed
    forms of the QFI do, in place of a bare division by zero."""
    from bifrost import cli

    assert cli.main(["sld", "--eta1", "0.5", "--ns", "0", "--nth", "0"]) == 1
    assert capsys.readouterr() == ("", "error: no photons anywhere: the QFI expression degenerates\n")


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


def test_circuit_unconverged_residual_is_a_regression_exit(monkeypatch, capsys):
    """Where the circuit's residual norm exceeds its tolerance, ``circuit``
    still prints its JSON, with ``"converged": false``, and exits 3, the
    code of a failed check. Inside the domain the solve converges (its norm
    is 3.9e-13 at n_s = 1e6), so the tolerance is set to 0 here; the
    n_s = 1e300 that left it unconverged lies outside the domain."""
    from bifrost import cli

    monkeypatch.setattr(sys.modules["bifrost.sld"], "_CIRCUIT_TOL", 0.0)
    assert cli.main(["circuit", "--ns", "1e6"]) == 3
    captured = capsys.readouterr()
    assert captured.err == ""
    payload = json.loads(captured.out)
    assert payload["converged"] is False
    assert payload["n_s"] == 1e6
    assert payload["residuals"]["norm"] > 0.0
    assert cli.main(["circuit", "--ns", "1e300"]) == 1
    assert capsys.readouterr() == ("", DOMAIN_ERROR)


@pytest.mark.parametrize(
    "argv, named",
    [(["circuit", "--ns", "1e-310"], "photon numbers"), (["circuit", "--ns", "5e-324"], "photon numbers"),
     (["circuit", "--ns", "1e308"], "photon numbers"), (["ratio-grid", "--eta1", "0:inf:2"], "float range"),
     (["ratio-grid", "--ns=-1e308:1e308:3"], "float range"),
     (["ratio-grid", "--nth", "1:inf:2", "--log-nth"], "float range"),
     (["ratio-grid", "--nth", "nan:1:3"], "float range")],
    ids=["circuit-mu", "circuit-subnormal", "circuit-scale", "grid-inf-bound", "grid-span",
         "grid-log-inf", "grid-nan"],
)
def test_values_outside_the_float_range_are_one_error_line(argv, named, capsys):
    """Where a ratio-grid range spans values outside the float range, the
    command prints one error line naming it and nothing else, with no
    warning: linspace and geomspace warned on an infinite bound or span.
    The photon numbers at which the circuit's mu = sqrt(1 + 1/(2 n_s)) or
    scale sqrt(2 n_s) left the float range, where it printed Infinity and
    NaN, lie outside the domain and end in its error line."""
    from bifrost import cli

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    captured = capsys.readouterr()
    assert [str(w.message) for w in caught] == []
    assert code == 1 and captured.out == "" and len(captured.err.splitlines()) == 1
    assert named in captured.err


def test_validate_quick_is_an_unknown_argument():
    """``validate`` runs one suite, and the flag of the reduced one is gone:
    it is a usage error, with nothing on standard output."""
    result = run_cli("validate", "--quick")
    assert result.returncode == 1 and result.stdout == ""
    assert result.stderr.endswith("error: unrecognized arguments: --quick\n")


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


@pytest.mark.parametrize(
    "command, flag",
    [("ratio-grid", "--ns"), ("ratio-grid", "--nth"), ("qfi", "--ns"), ("qfi", "--nth"),
     ("sld", "--ns"), ("sld", "--nth"), ("circuit", "--ns")],
)
def test_photon_numbers_at_the_domain_bounds(command, flag, capsys):
    """Every command that takes a photon number accepts both bounds of the
    domain, 1e-6 and 1e6, and refuses their float neighbours outside it
    with one error line that names the domain, exit code 1."""
    from bifrost import cli

    for value in ("1e-6", "1e6"):
        assert cli.main([command, flag, value]) == 0, value
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out
    for value in (repr(float(np.nextafter(1e-6, 0.0))), repr(float(np.nextafter(1e6, np.inf)))):
        assert cli.main([command, flag, value]) == 1, value
        assert capsys.readouterr() == ("", DOMAIN_ERROR)


@pytest.mark.parametrize("ns", ["1e10", "1e13", "1e14", "1e15", "1e16", "1e100"])
@pytest.mark.parametrize("command", [["qfi", "--probe", "tmsv"], ["sld"]], ids=["qfi", "sld"])
def test_photon_numbers_past_float64_resolution_are_a_round_off_error_line(command, ns, capsys):
    """At eta1 0.9 and n_th 1 the received covariance's small eigen-direction
    loses digits from n_s = 1e10, where ``qfi`` printed values 1e-5 to
    1.5e-2 off up to 1e13 with exit code 0, and from 1e14 its smallest
    eigenvalue lies within 4 eps of its largest, where ``qfi`` printed a
    value 6.7 % off at 1e14, 60 % off at 1e15 and called the state
    unphysical from 1e16. Those photon numbers lie outside the domain: the
    command refuses them with the domain's one error line before any solve
    (the round-off bound itself: the next test)."""
    from bifrost import cli

    assert cli.main([*command, "--eta1", "0.9", "--nth", "1", "--ns", ns]) == 1
    assert capsys.readouterr() == ("", DOMAIN_ERROR)


def test_round_off_bound_leaves_the_domain_with_margin(monkeypatch):
    """The solve's round-off bound is a Cholesky factor in float64. The
    entangled probe's normal-mode covariance, diagonal at zero gap with
    entries that are sums of positive terms, factors at the domain's worst
    corner, (1 - 1e-15, 1e6, 0), where the QFI reads within 1e-7 of the
    50-digit closed form (4.8e-8: its least mixed normal mode has
    1 - lambda^2 of about 1e-8), and far past the domain, at n_s = 1e10,
    1e14 and 1e100 (eta1 0.9, n_th 1), where it reads within 1e-15. Those
    families lie outside the domain, so they are built with the domain check
    switched off. A covariance that float64 cannot factor raises the
    round-off error."""
    from bifrost import protocols, qfi
    from bifrost.errors import NumericalInstabilityError
    from bifrost.sld import qfi_result
    from closed_form_reference import mp_closed_form

    def deviation(eta1, n_s, n_th):
        family = bf.bifrequency_received_state(bf.BiFrequencyParams(eta1, 0.0, n_s, n_th), "tmsv")
        ref = mp_closed_form(bf.hq_closed_form, eta1, n_s, n_th)
        return float(abs(qfi_result(family).value - ref) / ref)

    assert deviation(1.0 - 1e-15, 1e6, 0.0) < 1e-7
    with pytest.raises(ValueError, match="photon numbers"):
        bf.BiFrequencyParams(0.9, 0.0, 1e14, 1.0)
    for module in (protocols, qfi):
        monkeypatch.setattr(module, "check_photon_numbers", lambda *values: None)
    for n_s in (1e10, 1e14, 1e100):
        assert deviation(0.9, n_s, 1.0) < 1e-15, n_s
    state = bf.GaussianState(np.diag([1.0, 1.0, 1.0, -1e-3]), np.zeros(4))
    unphysical = bf.StateFamily(eval=lambda lam: state, tangent=lambda lam: (state, np.eye(4), np.zeros(4)))
    with pytest.raises(NumericalInstabilityError, match="round-off"):
        qfi_result(unphysical)


EDGE_CORNER = ["--eta1", "0.999999", "--ns", "1e6", "--nth", "1e-6"]


def test_qfi_and_sld_at_the_large_signal_corner(capsys):
    """At (0.999999, 1e6, 1e-6) ``qfi`` for the entangled probe and ``sld``
    read within 1e-12 of the 50-digit closed forms: the normal-mode moments
    keep the small eigen-direction that the solve reads."""
    from bifrost import cli
    from closed_form_reference import mp_closed_form, mp_sld_coefficients

    assert cli.main(["qfi", *EDGE_CORNER, "--probe", "tmsv"]) == 0
    value = json.loads(capsys.readouterr().out)["value"]
    ref = mp_closed_form(bf.hq_closed_form, 0.999999, 1e6, 1e-6)
    assert float(abs(value - ref) / ref) < 1e-12, (value, ref)
    assert cli.main(["sld", *EDGE_CORNER]) == 0
    numeric = json.loads(capsys.readouterr().out)["numeric"]
    exact = mp_sld_coefficients(0.999999, 1e6, 1e-6)
    for name in ("l11", "l22", "l12", "l0"):
        assert float(abs(numeric[name] - getattr(exact, name))) < 1e-12, (name, numeric[name])


def test_import_leaves_scipy_stats_and_sparse_out():
    """No scipy module at all, on import or after running ``validate``,
    ``qi-check``, ``qfi`` for both probes and ``sld``: numpy is the one
    runtime dependency."""
    code = (
        "import contextlib, io, sys\n"
        "from bifrost import cli\n"
        "commands = [['validate'], ['qi-check'], ['qfi'],\n"
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


@pytest.mark.parametrize(
    "command, flag",
    [("ratio-grid", "--eta1"), ("ratio-grid", "--out"), ("ratio-grid", "--config"),
     ("qfi", "--eta1"), ("qfi", "--ns"), ("sld", "--nth"), ("thermal-approx", "--ghz"),
     ("thermal-approx", "--delta-frac"), ("circuit", "--ns")],
)
def test_a_flag_given_as_its_own_separator_is_a_usage_error(command, flag, capsys):
    """``--flag=--`` reaches the commands as an empty list, not a value
    (argparse drops the "--"), and ended in a TypeError traceback; it is
    the usage error of a flag given no value."""
    from bifrost import cli

    with pytest.raises(SystemExit) as exc:
        cli.main([command, f"{flag}=--"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if line.startswith("error: ")]
    assert errors == [f"error: argument {flag}: expected one argument"]


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
    [(["validate"], "bifrost.validate", "full_validation"),
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
