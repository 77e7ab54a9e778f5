"""``repro serve`` with the span wrappers installed (traced runs only).

Runs the same CLI entry point as ``python3 -m repro serve`` and, after
the server has drained, prints every span it and its process-pool
workers recorded as one ``PERFBENCH-SPANS <json>`` line on stdout.
"""

from __future__ import annotations

import json
import sys

import spans


def main(argv: list[str]) -> int:
    tracer = spans.Tracer()
    spans.install(tracer)
    from repro.cli import main as repro_main

    code = repro_main(["serve", *argv])
    print("PERFBENCH-SPANS " + json.dumps(tracer.spans), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
