"""Fuzzing the point commands' argv, in process through ``cli.main``.

``qfi --probe tmsv``, ``qfi --probe coherent`` and ``sld`` take values of
``--eta1``, ``--ns`` and ``--nth`` in finite, signed, subnormal, huge, NaN,
infinite and malformed forms, each flag given or left at its default. Every
run ends in exit 0 with finite numbers, or in exit 1 with exactly one
``error:`` line and nothing on stdout, and no warning escapes.
"""

import contextlib
import io
import json
import math
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from bifrost import cli
from bifrost.cli import CSV_HEADER

COMMANDS = (("qfi", "--probe", "tmsv"), ("qfi", "--probe", "coherent"), ("sld",))
FLAGS = ("--eta1", "--ns", "--nth")

SPECIAL = (
    "0", "-0.0", "1", "-1", "0.5", "0.999999", "1e-6", "1e6", "5e-324", "-5e-324",
    "2.2250738585072014e-308", "1e-310", "1.7976931348623157e308", "1e308", "1e309",
    "-1e309", "nan", "-nan", "NaN", "inf", "-inf", "Infinity", "+inf",
)
MALFORMED = ("", " ", "abc", "1,5", "0x10", "1e", "--", "0.5:1:3", "1_000", "١", " 0.5 ", "0.5j")
VALUES = st.one_of(
    st.sampled_from(SPECIAL + MALFORMED),
    st.floats().map(repr),  # signed, subnormal, huge, NaN and infinite among them
    st.floats(0.0, 1.0).map(repr),
    st.floats(-1e-300, 1e-300).map(repr),
    st.floats(1e300, 1e308).map(repr),
    st.floats(-1e308, -1e300).map(repr),
    st.text(st.characters(codec="ascii", categories=("L", "N", "P", "S")), max_size=6),
)
ARGV = st.tuples(
    st.sampled_from(COMMANDS),
    st.lists(st.tuples(st.sampled_from(FLAGS), VALUES), max_size=3, unique_by=lambda fv: fv[0]),
)


def _numbers(value):
    """Every number of a parsed JSON document."""
    if isinstance(value, dict):
        for item in value.values():
            yield from _numbers(item)
    elif isinstance(value, list):
        for item in value:
            yield from _numbers(item)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


def _run(argv):
    """Exit code, stdout, stderr and the warnings of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's own exits
            code = exc.code
    return code, out.getvalue(), err.getvalue(), caught


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(ARGV)
def test_point_commands_end_in_finite_numbers_or_one_error_line(case):
    command, flags = case
    argv = [*command, *(f"{flag}={value}" for flag, value in flags)]
    code, out, err, caught = _run(argv)
    assert not caught, (argv, [str(w.message) for w in caught])
    assert code in (0, 1), (argv, code, err)
    if code == 0:
        assert err == "", (argv, err)
        numbers = list(_numbers(json.loads(out)))
        assert numbers and all(math.isfinite(x) for x in numbers), (argv, out)
    else:
        assert out == "", (argv, out)
        assert sum(line.startswith("error:") for line in err.splitlines()) == 1, (argv, err)


# ratio-grid's axes: a single value, or min:max:steps with steps small enough
# that a grid stays a few hundred rows
STEPS = st.sampled_from(("0", "1", "2", "3", "7", "-1", " 2 ", "1.5", "1e1", "", "x", "2:3"))
AXIS = st.one_of(VALUES, st.tuples(VALUES, VALUES, STEPS).map(":".join))
GRID_FLAGS = st.lists(
    st.tuples(st.sampled_from(("--eta1", "--ns", "--nth")), AXIS),
    max_size=3, unique_by=lambda fv: fv[0],
)
GRID_SWITCHES = st.lists(
    st.sampled_from((("--log-nth",), ("--format=csv",), ("--format=json",), ("--format=xml",),
                     ("--out", "grid"), ("--out", "missing/grid"))),
    max_size=3, unique_by=lambda s: s[0][:5],
)
# a config file's values: numbers, strings and switches, and what no flag takes
CONFIG_VALUES = st.one_of(
    st.floats(), st.integers(-10, 10), st.booleans(), st.none(), st.just([0.5]), VALUES,
)
CONFIG = st.one_of(
    st.dictionaries(
        st.sampled_from(("eta1", "ns", "nth", "log-nth", "log_nth", "format", "out", "probe",
                         "config", "bogus")),
        CONFIG_VALUES, max_size=3,
    ),
    st.sampled_from(("[]", "0.5", "{", "", "\xff")),
)
COMMAND_ARGV = st.one_of(
    st.tuples(st.just(("ratio-grid",)), GRID_FLAGS, GRID_SWITCHES, st.none()),
    st.tuples(st.just(("ratio-grid",)), GRID_FLAGS, GRID_SWITCHES, CONFIG),
    st.tuples(st.sampled_from((("qfi",), ("qfi", "--probe", "coherent"), ("sld",))),
              st.lists(st.tuples(st.sampled_from(FLAGS), VALUES), max_size=2,
                       unique_by=lambda fv: fv[0]),
              st.just([]), CONFIG),
    st.tuples(st.just(("circuit",)), st.lists(st.tuples(st.just("--ns"), VALUES), max_size=1),
              st.just([]), st.none()),
    st.tuples(st.just(("thermal-approx",)),
              st.lists(st.tuples(st.sampled_from(("--ghz", "--temp", "--delta-frac")), VALUES),
                       max_size=3, unique_by=lambda fv: fv[0]),
              st.just([]), st.none()),
)


def _config_file(directory, config):
    """``config`` written as a file in ``directory``, a dict as JSON and a
    string as its own bytes, and the output path it names, if any: an
    ``out`` that names a file is moved into ``directory``."""
    path, out = directory / "config.json", None
    if isinstance(config, dict):
        value = config.get("out")
        if isinstance(value, (int, float, str)) and not isinstance(value, bool) and value != "":
            out = directory / "from-config"
            config = {**config, "out": str(out)}
        path.write_text(json.dumps(config), encoding="utf-8")
    else:
        path.write_bytes(config.encode("utf-8", "surrogateescape"))
    return str(path), out


def _finite_output(text):
    """Every number of a command's output, a CSV grid or a JSON document, is finite."""
    if text.startswith(CSV_HEADER):
        numbers = [float(field) for line in text.splitlines()[1:] for field in line.split(",")]
    else:
        numbers = list(_numbers(json.loads(text)))
    return numbers and all(math.isfinite(x) for x in numbers)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(COMMAND_ARGV)
def test_other_commands_end_in_finite_numbers_or_one_error_line(tmp_path_factory, case):
    """``ratio-grid`` with single values and min:max:steps grids, its
    switches, an output file and a config file; ``qfi`` and ``sld`` with a
    config file; ``circuit`` and ``thermal-approx``: every run exits 0, or 3
    where the circuit solve does not converge, with finite numbers, or
    exits 1 or 2 with exactly one ``error:`` line and nothing on stdout, and
    no warning escapes."""
    directory = tmp_path_factory.mktemp("argv")
    command, flags, switches, config = case
    argv = [*command, *(f"{flag}={value}" for flag, value in flags)]
    out = None
    if config is not None:
        path, out = _config_file(directory, config)
        argv += ["--config", path]
    for switch in switches:
        if switch[0] == "--out":
            out = directory / switch[1]  # the flag wins over the file
            argv += ["--out", str(out)]
        else:
            argv += switch
    code, stdout, err, caught = _run(argv)
    assert not caught, (argv, [str(w.message) for w in caught])
    assert code in (0, 1, 2, 3), (argv, code, err)
    if code in (0, 3):
        assert err == "", (argv, err)
        written = out.read_text(encoding="utf-8") if out is not None and not stdout else stdout
        assert _finite_output(written), (argv, written)
    else:
        assert stdout == "", (argv, stdout)
        assert sum(line.startswith("error:") for line in err.splitlines()) == 1, (argv, err)
