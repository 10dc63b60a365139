"""Run one firstreturn CLI invocation under the outside-in tracer.

    python3 bench/cli_child.py TRACE_OUT ARG...

Installs the tracer, calls firstreturn.cli.main(ARG...), then writes the
tracer's aggregates and spans as one JSON object to TRACE_OUT and exits
with the CLI's exit code.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import firstreturn.cli  # noqa: E402

import tracer as tracing  # noqa: E402


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer().install()
    try:
        code = firstreturn.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(trace_out, "w") as fh:
            json.dump({**tracer.snapshot(), "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
