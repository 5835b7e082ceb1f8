"""Run ``mangeron.cli.main`` in this fresh process with the layer wrappers on.

Usage: python perfbench/cli_shim.py SPANS_JSON ARGS...

ARGS go to ``mangeron.cli.main`` as the console script would pass them.
The import of ``mangeron.cli`` is recorded as the span ``cli.import``; the
spans are written to SPANS_JSON when main returns, and the process exits
with main's code.
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.tracing import Tracer  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    start = time.perf_counter()
    import mangeron.cli
    tracer.record("cli.import", start, time.perf_counter())
    try:
        with tracer.installed():
            return mangeron.cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
