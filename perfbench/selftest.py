"""Self-tests of the benchmark harness.

Run from the checkout root (not part of the tier-1 suite)::

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import report  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import system  # noqa: E402
import workloads  # noqa: E402


def _span(sid, parent, name, start, end, pid=1):
    return (sid, parent, name, start, end, None, pid)


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def test_self_time_subtracts_children():
    tree = [
        _span(1, 0, "qhd.solve", 0.0, 10.0),
        _span(2, 1, "qhd.evolve", 1.0, 7.0),
        _span(3, 1, "qhd.measure", 7.0, 8.0),
        _span(4, 2, "qubo.decode", 2.0, 3.0),
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({1: 3.0, 2: 5.0, 3: 1.0, 4: 1.0})
    assert spans.self_by_layer(tree)["qhd"] == pytest.approx(9.0)
    assert spans.self_by_layer(tree)["qubo"] == pytest.approx(1.0)


def test_overlapping_children_count_once():
    tree = [
        _span(1, 0, "api.chunk", 0.0, 10.0),
        _span(2, 1, "qubo.build", 1.0, 5.0),
        _span(3, 1, "qubo.build", 4.0, 6.0),
        _span(4, 1, "qubo.build", 9.0, 12.0),
    ]
    assert spans.self_times(tree)[1] == pytest.approx(10.0 - 5.0 - 1.0)


def test_worker_spans_ride_home_with_chunk_results():
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        worker = [
            _span((7 << 32) | 1, 0, "api.chunk", 0.0, 4.0, pid=7),
            _span((7 << 32) | 2, (7 << 32) | 1, "qhd.evolve", 1.0, 3.0,
                  pid=7),
        ]
        carried = spans._Carrier([(0, "artifact")], worker)
        delivered = pickle.loads(pickle.dumps(carried))
    finally:
        uninstall()
    assert delivered == [(0, "artifact")]
    assert type(delivered) is list
    assert tracer.spans == worker
    table = spans.layer_table(tracer.spans, ops=1, op_wall_s=5.0)
    assert table["api"] == pytest.approx(2000.0)
    assert table["qhd"] == pytest.approx(2000.0)
    assert sum(table.values()) == pytest.approx(5000.0)
    assert table["other"] == pytest.approx(1000.0)


def test_wrappers_record_nesting_and_uninstall():
    from repro.community import direct

    original = direct.modularity
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        from repro.graphs import ring_of_cliques

        graph, truth = ring_of_cliques(3, 4)
        with tracer.span("api.chunk"):
            direct.modularity(graph, truth)
    finally:
        uninstall()
    assert direct.modularity is original
    (inner, outer) = tracer.spans
    assert inner[2] == "community.modularity" and outer[2] == "api.chunk"
    assert inner[1] == outer[0]


# ----------------------------------------------------------------------
# Percentile rule
# ----------------------------------------------------------------------
def test_p90_needs_ten_samples_beyond_it():
    assert report.tail_percentile([float(i) for i in range(99)], 90) is None
    samples = [float(i) for i in range(100)]
    assert report.tail_percentile(samples, 90) == 89.0
    assert report.tail_percentile([], 90) is None


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_follow_the_seed(name, monkeypatch):
    _tiny(monkeypatch)
    same = [pickle.dumps(workloads.generate(name, 5)) for _ in range(2)]
    other = pickle.dumps(workloads.generate(name, 6))
    assert same[0] == same[1]
    assert other != same[0]


def test_event_batches_apply_cleanly():
    from repro.graphs import Graph

    graph = Graph.from_arrays(
        *workloads.generate("stream_updates", 3)["graphs"][0]
    )
    rng = __import__("numpy").random.default_rng(0)
    for batch in workloads._event_batches(graph, rng, 20):
        before = graph.n_edges
        kinds = [event[0] for event in batch]
        graph, touched = graph.apply_updates(batch)
        assert graph.n_edges == (
            before + kinds.count("insert") - kinds.count("delete")
        )
        assert len(touched) > 0


# ----------------------------------------------------------------------
# The layer map covers every per-layer metric of BENCHMARK.json
# ----------------------------------------------------------------------
def test_layer_map_matches_benchmark_json():
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    assert set(layer_map["metrics"]) == set(report.PER_LAYER)


# ----------------------------------------------------------------------
# Thread policy: the program runs as shipped
# ----------------------------------------------------------------------
def test_workload_env_leaves_thread_vars_unset(monkeypatch):
    for var in system.THREAD_VARS:
        monkeypatch.setenv(var, "3")
    env = run._child_env()
    assert not set(system.THREAD_VARS) & set(env)


# ----------------------------------------------------------------------
# Tiny-size smoke runs through the real code path
# ----------------------------------------------------------------------
def _tiny(monkeypatch):
    for name, n in (
        ("multilevel_batch", 160),
        ("serve_detect", 30),
        ("stream_updates", 60),
    ):
        monkeypatch.setitem(workloads.NODES, name, n)
    monkeypatch.setitem(workloads.WARMUP_NODES, "multilevel_batch", 140)
    monkeypatch.setitem(workloads.WARMUP_NODES, "serve_detect", 20)
    monkeypatch.setattr(workloads, "MULTILEVEL_GRAPHS", 4)
    monkeypatch.setattr(workloads, "MULTILEVEL_BATCH", 2)
    monkeypatch.setattr(workloads, "SERVE_GRAPHS", 3)
    monkeypatch.setattr(workloads, "STREAMS", 2)
    monkeypatch.setattr(workloads, "STREAM_BATCHES", 6)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke(name, trace, monkeypatch):
    _tiny(monkeypatch)
    monkeypatch.chdir(ROOT)
    correct, attempted, failed, metrics, lines = run.run_workload(
        name, 1, 0.3, trace
    )
    assert correct, lines
    assert attempted >= 1 and failed == 0
    units = report.PER_LAYER if trace else report.END_TO_END
    assert set(metrics) == set(units)
    assert all(isinstance(v, float) for v in metrics.values())
    if not trace:
        assert all(metrics[k] > 0 for k in report.END_TO_END), metrics
        return
    layer_sum = sum(
        v for k, v in metrics.items()
        if k.startswith("self.") and k != "self.op_wall_ms"
    )
    assert layer_sum == pytest.approx(metrics["self.op_wall_ms"])
    assert metrics["env.blas_threads"] >= 1
    if name == "serve_detect":
        # The server child and its process workers.
        assert metrics["trace.remote_spans"] > 0
        assert metrics["server.parse_ms"] > 0
    if name == "stream_updates":
        assert metrics["qubo.patch_ms"] > 0


def test_refuses_a_tree_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text()
    )
    shutil.copytree(HERE, tmp_path / "perfbench")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_detect",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
