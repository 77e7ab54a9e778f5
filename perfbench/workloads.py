"""The benchmark's workloads: their specs and seeded inputs.

Inputs are generated here, in the launching process, and handed to
the workload process as plain arrays and bytes; the program under test
only ever sees them through ``repro.api.Session``,
``Session.detect_stream`` and ``POST /detect`` on ``repro serve``.
README.md records why each workload exists and how it was sized.
"""

from __future__ import annotations

import json
import zlib
from typing import Any

import numpy as np

from report import BENCHMARK
from repro.graphs import Graph
from repro.graphs.lfr import lfr_graph

#: Table-2 shape of ``repro.experiments.large_networks._qhd_spec``.
MULTILEVEL_SPEC: dict[str, Any] = {
    "detector": "multilevel",
    "detector_config": {
        "solver": {
            "name": "qhd",
            "config": {
                "n_samples": 16,
                "n_steps": 100,
                "grid_points": 16,
                "seed": 11,
            },
        },
        "config": {"threshold": 120, "refine_seed": 12},
    },
    "n_communities": 8,
}

SERVE_SPEC: dict[str, Any] = {
    "solver": "greedy", "n_communities": 4, "seed": 0,
}

STREAM_SPEC: dict[str, Any] = {
    "solver": "greedy", "n_communities": 8, "seed": 0,
}


#: Workload names, in ``BENCHMARK.json`` order.
WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])

# Per-op cost and modularity vary by graph (stream batches by 20%
# between LFR seeds), so each run spreads its ops over several graphs
# and reports their average.
#: Nodes per graph (LFR mixing 0.1 for the Table-1 size, 0.2 for the
#: Table-2 and stream sizes) and per warm-up graph.
NODES = {"multilevel_batch": 1000, "serve_detect": 200, "stream_updates": 1000}
WARMUP_NODES = {"multilevel_batch": 300, "serve_detect": 40}
MULTILEVEL_GRAPHS = 12
MULTILEVEL_BATCH = 2
SERVE_GRAPHS = 48
STREAMS = 8
STREAM_BATCHES = 200  # per stream; runs stop early if they run out
STREAM_EVENTS = (8, 6, 6)  # inserts, deletes, reweights per batch


def _seeds(rng: np.random.Generator, count: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def _lfr(n: int, mixing: float, seed: int) -> Graph:
    return lfr_graph(n, mixing=mixing, seed=seed)[0]


def _request_body(graph: Graph, spec: dict[str, Any]) -> bytes:
    _, u, v, w = graph.to_arrays()
    edges = [
        [a, b] if c == 1.0 else [a, b, c]
        for a, b, c in zip(u.tolist(), v.tolist(), w.tolist())
    ]
    return json.dumps(
        {"graph": {"n_nodes": graph.n_nodes, "edges": edges}, "spec": spec}
    ).encode()


def _event_batches(
    graph: Graph, rng: np.random.Generator, count: int
) -> list[list[tuple]]:
    """Seeded event batches that are valid against the evolving graph.

    Inserts name absent edges, deletes and reweights present ones, and
    no edge appears twice in one batch, so every batch applies cleanly.
    """
    n = graph.n_nodes
    _, u, v, _ = graph.to_arrays()
    edges = [(a, b) for a, b in zip(u.tolist(), v.tolist()) if a != b]
    where = {edge: i for i, edge in enumerate(edges)}

    def remove(edge: tuple[int, int]) -> None:
        i = where.pop(edge)
        last = edges.pop()
        if last != edge:
            edges[i] = last
            where[last] = i

    n_insert, n_delete, n_reweight = STREAM_EVENTS
    batches = []
    for _ in range(count):
        batch: list[tuple] = []
        touched: set[tuple[int, int]] = set()
        while len(touched) < n_delete + n_reweight:
            edge = edges[int(rng.integers(len(edges)))]
            if edge in touched:
                continue
            touched.add(edge)
            if len(touched) <= n_delete:
                batch.append(("delete", *edge))
            else:
                weight = round(float(rng.uniform(0.5, 2.0)), 3)
                batch.append(("reweight", *edge, weight))
        inserted = []
        while len(inserted) < n_insert:
            a, b = sorted(int(x) for x in rng.integers(n, size=2))
            if a == b or (a, b) in where or (a, b) in touched:
                continue
            touched.add((a, b))
            inserted.append((a, b))
            batch.append(("insert", a, b, 1.0))
        for kind, *edge in batch:
            if kind == "delete":
                remove(tuple(edge))
        for edge in inserted:
            where[edge] = len(edges)
            edges.append(edge)
        order = rng.permutation(len(batch))
        batches.append([batch[i] for i in order])
    return batches


def generate(name: str, seed: int) -> dict[str, Any]:
    """The inputs of workload ``name`` for ``seed`` (same seed, same inputs)."""
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    n, n_warm = NODES[name], WARMUP_NODES.get(name, 0)
    if name == "multilevel_batch":
        return {
            "spec": MULTILEVEL_SPEC,
            "batch": MULTILEVEL_BATCH,
            "graphs": [
                _lfr(n, 0.2, s).to_arrays()
                for s in _seeds(rng, MULTILEVEL_GRAPHS)
            ],
            "warmup": [
                _lfr(n_warm, 0.2, s).to_arrays() for s in _seeds(rng, 2)
            ],
        }
    if name == "serve_detect":
        graphs = [_lfr(n, 0.1, s) for s in _seeds(rng, SERVE_GRAPHS)]
        warmup = [_lfr(n_warm, 0.1, s) for s in _seeds(rng, 2)]
        return {
            "spec": SERVE_SPEC,
            "graphs": [g.to_arrays() for g in graphs],
            "bodies": [_request_body(g, SERVE_SPEC) for g in graphs],
            "warmup_bodies": [_request_body(g, SERVE_SPEC) for g in warmup],
        }
    if name == "stream_updates":
        graphs = [_lfr(n, 0.2, s) for s in _seeds(rng, STREAMS)]
        return {
            "spec": STREAM_SPEC,
            "graphs": [g.to_arrays() for g in graphs],
            "batches": [
                _event_batches(g, rng, STREAM_BATCHES) for g in graphs
            ],
        }
    raise KeyError(f"unknown workload {name!r}; known: {sorted(WORKLOADS)}")
