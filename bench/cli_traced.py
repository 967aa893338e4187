"""Run one ``bifrost`` command in this process with the cli and protocols layers traced.

Usage: python3 bench/cli_traced.py TRACE_JSON COMMAND [ARGS...]

Writes the command's per-layer totals to TRACE_JSON: the import time of
``bifrost`` and ``bifrost.cli``, the time in ``cli.main``, the cli layer's
own time (``cli.main`` minus the protocol calls it makes), and the time and
number of ``bifrequency_advantage`` calls.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from tracer import Tracer  # noqa: E402


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import bifrost  # noqa: F401
    from bifrost import cli, protocols

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.wrap_module(cli)
    tracer.wrap_module(protocols)
    try:
        code = cli.main(argv)
    finally:
        tracer.restore()
    tree = tracer.take()
    totals = {
        "import_s": import_s,
        "main_s": tree.time("cli.main"),
        "cli_self_s": tree.layer_self_time("cli"),
        "advantage_s": tree.time("protocols.bifrequency_advantage"),
        "advantage_calls": tree.count("protocols.bifrequency_advantage"),
    }
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(totals, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
