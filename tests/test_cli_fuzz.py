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
