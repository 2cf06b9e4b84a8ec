"""Run heavycol's CLI as `python -m heavycol.cli ARGS` does, timing its library calls.

    PYTHONPATH=src python3 perfbench/timed_cli.py verify theorem1 --n 4 --json

The public scan calls that `heavycol.cli` makes (`layers.SCANS`) are wrapped
in a timer.  When `cli.main` returns, the summed time of those calls is
written as the last line of standard error, `library_s <seconds>`, and the
process exits with `main`'s code.  The process's wall time minus that figure
is what the CLI itself costs: interpreter start, imports, argument parsing,
rendering the report and exit.  Both figures come from one process, so the
difference does not depend on how fast the machine was at another moment.
"""

import sys
import time

from layers import SCANS

from heavycol import cli

spent = 0.0


def timed(fn):
    def call(*args, **kwargs):
        global spent
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent += time.perf_counter() - started

    return call


for name in SCANS:
    setattr(cli, name, timed(getattr(cli, name)))
code = cli.main()
print(f"library_s {spent!r}", file=sys.stderr)
sys.exit(code)
