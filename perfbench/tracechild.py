"""Run one ``cstar-rank`` command with the layer tracer installed.

Usage: ``python tracechild.py STATS_FILE CLI_ARG...``.  Runs the CLI exactly
as ``python -m cstar_rank.cli CLI_ARG...`` would, then writes the tracer's
calls, self times and counters to ``STATS_FILE`` and exits with the CLI's
exit code.  The traced ``cli-oneshot`` passes start this instead of the CLI.
"""

import json
import sys

from tracing import Tracer


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    import cstar_rank
    import cstar_rank.cli

    tracer = Tracer(default_tol=cstar_rank.DEFAULT_TOL)
    tracer.record_spans = False
    tracer.install()
    try:
        code = cstar_rank.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(stats_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.snapshot(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
