"""BATCH — executor backends of the ``repro.api`` batch runtime.

Not a paper artefact: this bench guards the batch-submission path of the
``repro.api`` facade.  It runs one declarative spec (QHD-pipeline
detector + seeded QHD solver — a CPU-bound numpy workload) over a fixed
batch of LFR graphs through three session configurations:

* ``sequential`` — one worker, the inline loop every backend reduces to,
* ``threads_N`` — the persistent thread pool (GIL-bound for numpy-heavy
  specs, so the speedup here measures how much of the run releases the
  GIL),
* ``processes_N_pickle`` / ``processes_N_shm`` — the process pool
  (per-worker engine pools, chunked work-stealing fan-out) under both
  input wires: array bundles serialised into every task payload, vs
  zero-copy shared-memory segments with per-chunk descriptors.

All rows must produce bit-identical seeded partitions (asserted), so
the bench doubles as an executor × wire equivalence check at benchmark
scale.

A separate **wire probe** isolates the per-graph encode+submit cost of
each wire at fleet-relevant graph sizes: per graph it measures encode,
a length-prefixed trip through a real ``os.pipe`` (the transport the
executor's task queue rides on), and worker-side materialisation down
to canonical ``Graph`` arrays.  The ``repeats`` axis models sweep
workloads where the same graph is submitted under several specs — the
case segment dedup turns into a single copy.

Besides the usual text report it writes
``benchmarks/results/batch.json`` with the shape::

    {"benchmark": "batch", "n_graphs": ..., "n_nodes": ...,
     "cpu_count": ..., "spec": {...},
     "results": [{"label": "sequential", "seconds": ...,
                  "blas_threads": ... | None,
                  "setup_seconds": ..., "run_seconds": ...,
                  "engine_pool": {...}, "wire": {...} | None,
                  "encode_submit_ms_per_graph": ... | None}, ...],
     "wire_probe": [{"n_nodes": ..., "n_edges": ..., "repeats": ...,
                     "pickle_ms_per_graph": ..., "shm_ms_per_graph": ...,
                     "shm_advantage": ...}, ...],
     "thread_speedup": ..., "process_speedup": ...,
     "process_over_thread": ..., "wire_advantage_executor": ...}

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
import os
import pickle
import struct
import sys
import threading
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


class _PipeDrain:
    """Length-prefixed blobs through a real ``os.pipe``.

    Models the transport the executor's task queue rides on: the parent
    writes the serialised task in 64 KiB chunks, a drainer on the other
    end reassembles it.  The collected blobs are decoded by the caller
    afterwards, standing in for the worker's receive side.
    """

    def __init__(self) -> None:
        self._read_fd, self._write_fd = os.pipe()
        self.blobs: list[bytes] = []
        self._thread = threading.Thread(target=self._drain, daemon=True)
        self._thread.start()

    def _drain(self) -> None:
        while True:
            header = os.read(self._read_fd, 4)
            if len(header) < 4:
                return
            length = struct.unpack(">I", header)[0]
            if length == 0:
                return
            chunks, received = [], 0
            while received < length:
                chunk = os.read(
                    self._read_fd, min(1 << 16, length - received)
                )
                chunks.append(chunk)
                received += len(chunk)
            self.blobs.append(b"".join(chunks))

    def send(self, blob: bytes) -> None:
        os.write(self._write_fd, struct.pack(">I", len(blob)))
        view = memoryview(blob)
        while view:
            sent = os.write(self._write_fd, view[: 1 << 16])
            view = view[sent:]

    def close(self) -> None:
        os.write(self._write_fd, struct.pack(">I", 0))
        self._thread.join()
        os.close(self._read_fd)
        os.close(self._write_fd)


def _wire_cost_ms(
    graphs: list, wire: str, repeats: int = 1, rounds: int = 5
) -> float:
    """Per-graph encode+submit cost of one wire, in ms (best of rounds).

    Covers exactly the wire-dependent work per graph: encode the
    arrays, ship the task blob through a pipe, and deserialise on the
    far side back to ready-to-use arrays (``pickle.loads`` copies them
    out of the blob; the shm reader attaches zero-copy views).  The
    wire-independent remainder — rebuilding ``Graph`` structure from
    those arrays — is identical on both wires and excluded.
    ``repeats`` submits every graph that many times (sweep workloads);
    the shm writer dedups those into one segment, the pickle wire pays
    full freight per submission.
    """
    from repro.api import runner
    from repro.api.shm import ShmBatchWriter, ShmChunkReader

    encoded = [runner._encode_input(graph) for graph in graphs]
    n_submissions = len(graphs) * repeats
    best = float("inf")

    for _ in range(rounds):
        if wire == "pickle":
            pipe = _PipeDrain()
            start = time.perf_counter()
            for _ in range(repeats):
                for tag, payload in encoded:
                    pipe.send(
                        pickle.dumps(
                            (tag, payload),
                            protocol=pickle.HIGHEST_PROTOCOL,
                        )
                    )
            pipe.close()
            for blob in pipe.blobs:
                pickle.loads(blob)
            elapsed = time.perf_counter() - start
        else:
            pipe = _PipeDrain()
            start = time.perf_counter()
            with ShmBatchWriter() as writer:
                for _ in range(repeats):
                    for index, (tag, payload) in enumerate(encoded):
                        descriptor = writer.encode(
                            tag, payload, key=index
                        )
                        pipe.send(
                            pickle.dumps(
                                ("shm", descriptor),
                                protocol=pickle.HIGHEST_PROTOCOL,
                            )
                        )
                pipe.close()
                with ShmChunkReader() as reader:
                    for blob in pipe.blobs:
                        _, descriptor = pickle.loads(blob)
                        reader.decode(descriptor)
                elapsed = time.perf_counter() - start
        best = min(best, elapsed / n_submissions * 1e3)
    return best


def run_wire_probe(scale: float) -> list[dict]:
    """Per-graph wire costs at fleet-relevant sizes, both wires.

    Rows cover ``repeats`` 1 (every graph unique) and 4 (sweep-style:
    one graph under four specs, the shape ``detect --repeat`` and the
    table drivers produce) at n_nodes >= 1000.
    """
    import numpy as np

    from repro.graphs.graph import Graph

    sizes = [(1000, 10_000), (4_000, 40_000)]
    if scale >= 1.0:
        sizes.append((10_000, 100_000))
    rows = []
    for n_nodes, n_edges in sizes:
        rng = np.random.default_rng(n_nodes)
        graphs = [
            Graph.from_arrays(
                n_nodes,
                rng.integers(0, n_nodes, size=n_edges),
                rng.integers(0, n_nodes, size=n_edges),
                rng.uniform(0.5, 2.0, size=n_edges),
            )
            for _ in range(3)
        ]
        for repeats in (1, 4):
            pickle_ms = _wire_cost_ms(graphs, "pickle", repeats)
            shm_ms = _wire_cost_ms(graphs, "shm", repeats)
            rows.append(
                {
                    "n_nodes": n_nodes,
                    "n_edges": n_edges,
                    "repeats": repeats,
                    "pickle_ms_per_graph": pickle_ms,
                    "shm_ms_per_graph": shm_ms,
                    "shm_advantage": pickle_ms / max(1e-9, shm_ms),
                }
            )
    return rows


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

    modes = [("sequential", "thread", 1, None)]
    if n_workers > 1:
        modes.append((f"threads_{n_workers}", "thread", n_workers, None))
    # Even on a single-core box the process rows run (inline, width 1)
    # so the report always carries all backend labels it can honestly
    # measure; the multi-worker process rows only exist with the cores
    # to back them.  Both wires run so the executor-level wire cost is
    # on record next to the isolated wire probe.
    modes.append(
        (f"processes_{n_workers}_pickle", "process", n_workers, "pickle")
    )
    modes.append(
        (f"processes_{n_workers}_shm", "process", n_workers, "shm")
    )

    results = []
    baseline = None
    for label, executor, workers, wire in modes:
        session_kwargs = {"max_workers": workers, "executor": executor}
        if wire is not None:
            session_kwargs["wire"] = wire
        with api.Session(**session_kwargs) as session:
            start = time.perf_counter()
            artifacts = session.detect_batch(graphs, spec)
            seconds = time.perf_counter() - start
            stats = session.stats()
            pool_stats = stats["engine_pool"]
            wire_stats = stats["wire"] if wire is not None else None
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
                "engine_pool": pool_stats,
                "wire": wire_stats,
                "encode_submit_ms_per_graph": (
                    _wire_cost_ms(graphs, wire)
                    if wire is not None
                    else None
                ),
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
    process_pickle = by_label.get(f"processes_{n_workers}_pickle")
    # The shm row is the speedup reference: shm is what wire="auto"
    # resolves to, so it is the configuration the drivers actually run.
    process = by_label.get(f"processes_{n_workers}_shm")
    return {
        "benchmark": "batch",
        "scale": scale,
        "n_graphs": n_graphs,
        "n_nodes": n_nodes,
        "n_workers": n_workers,
        "cpu_count": cpu_count,
        "spec": spec,
        "results": results,
        "wire_probe": run_wire_probe(scale),
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
        "wire_advantage_executor": (
            process_pickle / max(1e-9, process)
            if process_pickle is not None and process is not None
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
        pool = row.get("engine_pool")
        if pool and (pool["hits"] or pool["misses"]):
            lines.append(
                f"{'':16} engine pool: {pool['hits']} hits / "
                f"{pool['misses']} misses, "
                f"{pool['setup_seconds'] * 1e3:.2f} ms engine setup"
            )
        wire = row.get("wire")
        if wire is not None:
            lines.append(
                f"{'':16} wire {wire['mode']}: "
                f"{wire['bytes_shipped']} B shipped / "
                f"{wire['bytes_referenced']} B referenced, "
                f"{row['encode_submit_ms_per_graph']:.3f} ms "
                f"encode+submit per graph"
            )
    for key, title in (
        ("thread_speedup", "threads vs sequential"),
        ("process_speedup", "processes (shm) vs sequential"),
        ("process_over_thread", "processes (shm) vs threads"),
        ("wire_advantage_executor", "pickle wire vs shm (executor)"),
    ):
        value = report.get(key)
        if value is not None:
            lines.append(f"{title:<30} {value:>6.2f} x")
    probe = report.get("wire_probe") or []
    if probe:
        lines.append("-" * 62)
        lines.append(
            "wire probe — per-graph encode+submit "
            "(pipe transport included)"
        )
        lines.append(
            f"{'n_nodes':>8} {'repeats':>8} {'pickle':>10} "
            f"{'shm':>10} {'advantage':>10}"
        )
        for row in probe:
            lines.append(
                f"{row['n_nodes']:>8} {row['repeats']:>8} "
                f"{row['pickle_ms_per_graph']:>7.3f} ms "
                f"{row['shm_ms_per_graph']:>7.3f} ms "
                f"{row['shm_advantage']:>8.2f} x"
            )
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
        # process_seconds keeps its pre-wire meaning (the configuration
        # the drivers run, now the shm wire); the pickle row rides
        # alongside so the wire cost stays on the long-term record.
        "process_seconds": by_label.get(f"processes_{workers}_shm"),
        "process_pickle_seconds": by_label.get(
            f"processes_{workers}_pickle"
        ),
        "thread_speedup": report["thread_speedup"],
        "process_speedup": report["process_speedup"],
        "process_over_thread": report["process_over_thread"],
        "wire_advantage_executor": report["wire_advantage_executor"],
        "wire_probe": report["wire_probe"],
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
    assert any(label.endswith("_pickle") for label in labels)
    assert any(label.endswith("_shm") for label in labels)
    # The acceptance bar for the shm wire, under the sweep pattern
    # (repeats > 1, where dedup applies): at n_nodes >= 1000 the
    # advantage must at least point the right way (the 1/4 MB payload
    # there costs ~0.1 ms either way, so run-to-run noise straddles
    # 2x), and from n_nodes >= 4000 — megabyte-scale payloads, where
    # the wire actually matters — encode+submit must be >= 2x cheaper.
    # Measured margins on the larger rows are ~4-8x.
    sweep_rows = [
        row
        for row in report["wire_probe"]
        if row["n_nodes"] >= 1000 and row["repeats"] > 1
    ]
    assert sweep_rows
    assert all(row["shm_advantage"] > 1.0 for row in sweep_rows)
    large_rows = [r for r in sweep_rows if r["n_nodes"] >= 4000]
    assert large_rows
    assert all(row["shm_advantage"] >= 2.0 for row in large_rows)


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
