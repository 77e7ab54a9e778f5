"""BATCH — executor backends of the ``repro.api`` batch runtime.

Not a paper artefact: this bench guards the batch-submission path of the
``repro.api`` facade.  It runs one declarative spec (QHD-pipeline
detector + seeded QHD solver — a CPU-bound numpy workload) over a fixed
batch of LFR graphs through three session configurations:

* ``sequential`` — one worker, the inline loop every backend reduces to,
* ``threads_N`` — the persistent thread pool (GIL-bound for numpy-heavy
  specs, so the speedup here measures how much of the run releases the
  GIL),
* ``processes_N`` — the process pool (chunked work-stealing fan-out,
  each task carrying its pickled graphs).

All rows must produce bit-identical seeded partitions (asserted), so
the bench doubles as an executor equivalence check at benchmark scale.

Besides the usual text report it writes
``benchmarks/results/batch.json`` with the shape::

    {"benchmark": "batch", "n_graphs": ..., "n_nodes": ...,
     "cpu_count": ..., "spec": {...},
     "results": [{"label": "sequential", "seconds": ...,
                  "blas_threads": ... | None,
                  "setup_seconds": ..., "run_seconds": ...}, ...],
     "thread_speedup": ..., "process_speedup": ...,
     "process_over_thread": ...}

and (unless ``--no-trajectory``) appends a dated point to the
``BENCH_batch_runtime.json`` trajectory at the repo root — the
long-term record of sequential vs threads vs processes on the fixed
workload.

Run standalone with ``python benchmarks/bench_batch.py [--quick]
[--no-trajectory]`` (``--quick`` forces a small batch for CI) or
through pytest like the other ``bench_*`` modules.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
import time
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"
TRAJECTORY_PATH = Path(__file__).parent.parent / "BENCH_batch_runtime.json"
sys.path.insert(0, str(Path(__file__).parent))

from conftest import bench_scale, save_report  # noqa: E402


def _spec(n_communities: int, n_steps: int) -> dict:
    return {
        "detector": "qhd",
        "solver": "qhd",
        "solver_config": {
            "n_samples": 24,
            "grid_points": 32,
            "n_steps": n_steps,
            "shots": 2,
        },
        "n_communities": n_communities,
        "seed": 7,
    }


def run_batch(scale: float, n_communities: int = 3) -> dict:
    """Time the batch through every executor backend; return the report.

    The workload is sized so the full-scale batch is the acceptance
    one — at least 8 LFR graphs of at least 90 nodes, CPU-bound in the
    QHD evolution — while ``--quick`` shrinks the graphs, not the
    executor coverage.
    """
    import repro.api as api
    from repro.api.threads import available_cores
    from repro.graphs.lfr import lfr_graph

    n_graphs = max(8, int(round(16 * scale)))
    n_nodes = max(90, int(round(180 * scale)))
    n_steps = max(60, int(round(150 * scale)))
    graphs = [
        lfr_graph(n_nodes, mixing=0.1, seed=100 + i)[0]
        for i in range(n_graphs)
    ]
    spec = _spec(n_communities, n_steps)
    cpu_count = available_cores()
    n_workers = min(4, cpu_count)

    modes = [("sequential", "thread", 1)]
    if n_workers > 1:
        modes.append((f"threads_{n_workers}", "thread", n_workers))
    # Even on a single-core box the process row runs (inline, width 1)
    # so the report always carries every backend label it can honestly
    # measure.
    modes.append((f"processes_{n_workers}", "process", n_workers))

    results = []
    baseline = None
    for label, executor, workers in modes:
        with api.Session(max_workers=workers, executor=executor) as session:
            start = time.perf_counter()
            artifacts = session.detect_batch(graphs, spec)
            seconds = time.perf_counter() - start
            stats = session.stats()
        # Setup (pipeline construction) vs solve/evolve attribution,
        # summed over the batch from the per-artifact timings.
        setup_seconds = sum(a.timings["build"] for a in artifacts)
        run_seconds = sum(a.timings["run"] for a in artifacts)
        results.append(
            {
                "label": label,
                "executor": executor,
                "workers": workers,
                # The session's BLAS budget, read back from OpenBLAS.
                "blas_threads": stats["blas_threads"],
                "seconds": seconds,
                "setup_seconds": setup_seconds,
                "run_seconds": run_seconds,
            }
        )
        labels = [a.result.labels for a in artifacts]
        if baseline is None:
            baseline = labels
        else:
            # Fan-out must not change the seeded partitions — the
            # batch ≡ sequence contract, for every executor backend.
            assert all(
                (a == b).all() for a, b in zip(labels, baseline)
            ), f"{label} batch diverged from the sequential run"

    by_label = {row["label"]: row["seconds"] for row in results}
    sequential = by_label["sequential"]
    thread = by_label.get(f"threads_{n_workers}")
    process = by_label.get(f"processes_{n_workers}")
    return {
        "benchmark": "batch",
        "scale": scale,
        "n_graphs": n_graphs,
        "n_nodes": n_nodes,
        "n_workers": n_workers,
        "cpu_count": cpu_count,
        "spec": spec,
        "results": results,
        "thread_speedup": (
            sequential / max(1e-9, thread) if thread is not None else None
        ),
        "process_speedup": (
            sequential / max(1e-9, process) if process is not None else None
        ),
        "process_over_thread": (
            thread / max(1e-9, process)
            if thread is not None and process is not None
            else None
        ),
    }


def report_text(report: dict) -> str:
    """Human-readable table of one batch run."""
    lines = [
        "BATCH — session batch runtime, executor backends",
        f"batch: {report['n_graphs']} LFR graphs x "
        f"{report['n_nodes']} nodes, spec solver "
        f"{report['spec']['solver']}, {report['cpu_count']} cpus",
        "-" * 62,
        f"{'':16} {'total':>10} {'setup':>10} {'solve/evolve':>13}",
    ]
    for row in report["results"]:
        lines.append(
            f"{row['label']:<16} {row['seconds'] * 1e3:>8.2f} ms "
            f"{row['setup_seconds'] * 1e3:>8.2f} ms "
            f"{row['run_seconds'] * 1e3:>10.2f} ms"
        )
    for key, title in (
        ("thread_speedup", "threads vs sequential"),
        ("process_speedup", "processes vs sequential"),
        ("process_over_thread", "processes vs threads"),
    ):
        value = report.get(key)
        if value is not None:
            lines.append(f"{title:<30} {value:>6.2f} x")
    return "\n".join(lines)


def save_json(report: dict) -> Path:
    """Persist the JSON report under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "batch.json"
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return path


def append_trajectory(report: dict) -> Path:
    """Append one dated point to BENCH_batch_runtime.json at the root."""
    if TRAJECTORY_PATH.exists():
        data = json.loads(TRAJECTORY_PATH.read_text(encoding="utf-8"))
    else:
        data = {"benchmark": "batch_runtime", "trajectory": []}
    by_label = {row["label"]: row["seconds"] for row in report["results"]}
    workers = report["n_workers"]
    point = {
        "date": datetime.date.today().isoformat(),
        "cpu_count": report["cpu_count"],
        "blas_threads": {
            row["label"]: row["blas_threads"] for row in report["results"]
        },
        "n_workers": workers,
        "n_graphs": report["n_graphs"],
        "n_nodes": report["n_nodes"],
        "n_steps": report["spec"]["solver_config"]["n_steps"],
        "sequential_seconds": by_label["sequential"],
        "thread_seconds": by_label.get(f"threads_{workers}"),
        # Earlier points timed process_seconds on the shared-memory
        # wire, since deleted; from here on it is the pickle wire.
        "process_seconds": by_label.get(f"processes_{workers}"),
        "thread_speedup": report["thread_speedup"],
        "process_speedup": report["process_speedup"],
        "process_over_thread": report["process_over_thread"],
    }
    data["trajectory"].append(point)
    TRAJECTORY_PATH.write_text(
        json.dumps(data, indent=2) + "\n", encoding="utf-8"
    )
    return TRAJECTORY_PATH


def test_batch(benchmark):
    """pytest-benchmark entry point, consistent with the other benches."""
    scale = min(bench_scale(), 0.5)  # cap pytest runs at 8 graphs
    report = benchmark.pedantic(
        run_batch, args=(scale,), rounds=1, iterations=1
    )
    save_report("batch", report_text(report))
    path = save_json(report)
    print(f"[json saved to {path}]")

    assert report["n_graphs"] >= 8
    labels = {row["label"] for row in report["results"]}
    assert "sequential" in labels
    assert any(label.startswith("processes_") for label in labels)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="force a small batch regardless of REPRO_BENCH_SCALE — "
        "used by CI",
    )
    parser.add_argument(
        "--no-trajectory",
        action="store_true",
        help="skip appending this run to BENCH_batch_runtime.json "
        "(CI quick runs should not dilute the trajectory)",
    )
    args = parser.parse_args(argv)
    scale = 0.3 if args.quick else bench_scale()
    report = run_batch(scale)
    save_report("batch", report_text(report))
    path = save_json(report)
    print(f"[json saved to {path}]")
    if not args.no_trajectory:
        trajectory = append_trajectory(report)
        print(f"[trajectory point appended to {trajectory}]")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parent.parent / "src"))
    sys.exit(main())
