"""``python -m repro serve`` with every layer wrapped in timing spans.

The traced twin of the plain service: it installs the wrappers from
``tracing.py`` in the service process, then runs the service through
the same ``repro.cli.main`` entry point as ``python -m repro serve``.
When the service shuts down it writes the spans and solve-table stats
to the JSON file named by its first argument.

Usage: python3 perfbench/servehost.py <stats.json> serve <serve options...>
"""

import json
import os
import sys


def main(argv):
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import tracing

    spans = tracing.Spans()
    tracing.install(spans)
    from repro.cli import main as repro_main

    status = repro_main(argv[1:])
    with open(argv[0], "w", encoding="utf-8") as handle:
        json.dump({"spans": spans.snapshot(), "tables": tracing.table_stats()}, handle)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
