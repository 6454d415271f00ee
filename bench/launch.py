"""Run one rfda_secrecy CLI command under the tracer.

Usage: python bench/launch.py TRACE_JSON CLI_ARG...

Imports the package (timed), patches every traced function, calls
``rfda_secrecy.cli.main(CLI_ARG...)``, writes the per-function aggregates to
TRACE_JSON and exits with the CLI's exit code.  The CLI's own outputs are
the same as those of ``python -m rfda_secrecy CLI_ARG...``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    trace_path, cli_args = Path(argv[0]), argv[1:]
    t0 = time.perf_counter()
    import rfda_secrecy.cli
    import_s = time.perf_counter() - t0

    import tracer as tracing

    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        code = rfda_secrecy.cli.main(cli_args)
    report = tracer.summary()
    report["import_s"] = import_s
    trace_path.write_text(json.dumps(report, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
