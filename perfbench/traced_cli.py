"""Run the ``arrstab`` command with the benchmark's tracer installed.

Usage: python3 perfbench/traced_cli.py TRACE_DIR <arrstab arguments>

Spans and counts land in TRACE_DIR as one ``<pid>.jsonl`` file per process.
"""

import sys
from pathlib import Path

import tracer


def main() -> int:
    trace = tracer.install(Path(sys.argv[1]))
    from arrstab import cli

    try:
        return trace.timed("cli.main", cli.main)(sys.argv[2:])
    finally:
        trace.flush()


if __name__ == "__main__":
    sys.exit(main())
