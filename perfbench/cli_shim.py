"""Run one vwave CLI call in this process with span tracing.

Usage: python3 perfbench/cli_shim.py SPANS_FILE VWAVE_ARGS...

The traced cli_session starts this instead of the vwave entry point, so
the child's spans (cli.main and every layer below it) can be written to
SPANS_FILE when the call ends.
"""

import sys
from pathlib import Path

import tracing
import vwave.cli

if __name__ == "__main__":
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = vwave.cli.main(sys.argv[2:])
    finally:
        tracing.save(Path(sys.argv[1]), tracer.arrays())
    sys.exit(code)
