"""Traced `th-fredholm` process for the cli_cold workload's traced run.

    python bench/child.py COUNTERS_JSON CLI_ARG...

Installs the tracer, runs `th_fredholm.cli.main(CLI_ARG...)` inside a
`cli.main` span, writes the tracer's totals to COUNTERS_JSON and exits with
the command's exit code.
"""

import json
import sys
import warnings

from spans import MAIN, Tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from th_fredholm import cli

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = tracer.call(MAIN, cli.main, argv)
    tracer.count_warnings(caught)
    tracer.counts[f"cli.exit.{code}"] += 1
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.state(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
