"""One workload in its own process: set up, run for a while, check.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/child.py <workload> <setup|run|trace> <seconds> < inputs

The pickled inputs come from :func:`workloads.generate` on stdin.  The
process times its own set-up (importing ``repro``, building the session
or spawning ``repro serve``, the warm-up ops), then in ``run`` and
``trace`` mode runs ops for ``seconds``, runs untimed whatever inputs
of the fixed quality set the window missed, and checks every output.  It
prints one JSON line with what it measured.  ``trace`` mode installs
the span wrappers of :mod:`spans` before anything is built, so forked
workers and the server child are traced too.
"""

from __future__ import annotations

import sys

from spans import CLOCK


def main(argv: list[str]) -> int:
    name, mode, seconds = argv[0], argv[1], float(argv[2])
    start = CLOCK()
    import repro.api  # noqa: F401 - importing the program is set-up

    import_s = CLOCK() - start

    import json
    import os
    import pickle
    from pathlib import Path

    import spans
    import system
    from runtime import RUNTIMES

    inputs = pickle.load(sys.stdin.buffer)
    tracer = None
    if mode == "trace":
        tracer = spans.Tracer()
        spans.install(tracer)
    workload = RUNTIMES[name](inputs, tracer)
    result: dict = {}
    begun = CLOCK()
    try:
        workload.start()
        result["setup_s"] = CLOCK() - begun
        if workload.imports_program:
            result["setup_s"] += import_s
        result["warmup_digest"] = workload.warmup_digest
        if mode != "setup":
            workload.prime()
            pid = os.getpid()
            before = system.tree_cpu_seconds(pid)
            result.update(workload.run(seconds))
            result["cpu_s"] = system.cpu_delta(
                before, system.tree_cpu_seconds(pid)
            )
            result["counters"] = workload.counters()
            result["resolved"] = workload.resolved()
            workload.complete()
            # After the quality set is complete, so that every run has
            # held the same inputs however far its window got.
            result["peak_rss_mb"] = system.peak_rss_mb(pid)
            workload.check()
            result["modularity_mean"] = workload.modularity_mean()
            result["quality_inputs"] = len(workload.quality_keys)
    finally:
        workload.close()
    if mode != "setup":
        result["failures"] = workload.failures + workload.run_failures
        result["failed"] = len(result["failures"])
        result["digests"] = workload.digests
        result["env"] = system.environment(Path.cwd())
        if tracer is not None:
            result["layers"] = workload.layers(tracer.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
