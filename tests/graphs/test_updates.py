"""Edge cases of :meth:`Graph.apply_updates` (the streaming substrate).

The streaming pipeline leans on ``apply_updates`` producing graphs
indistinguishable from direct construction — same canonical edge
arrays, same sorted-CSR-row invariants ``has_edge`` binary-searches,
same duplicate-merging — so these cases pin exactly the corners where
an incremental implementation could diverge.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import GraphError
from repro.graphs.graph import Graph


def _assert_csr_identical(a: Graph, b: Graph) -> None:
    for left, right in zip(a.csr(), b.csr()):
        np.testing.assert_array_equal(left, right)


class TestDeleteMissing:
    def test_deleting_missing_edge_is_a_noop(self):
        graph = Graph(4, [(0, 1), (1, 2)])
        updated, touched = graph.apply_updates([("delete", 0, 3)])
        _assert_csr_identical(updated, graph)
        assert sorted(updated.edges()) == sorted(graph.edges())
        # No-op endpoints still count as touched: their rows may need a
        # coefficient re-check downstream even when nothing changed.
        assert touched.tolist() == [0, 3]

    def test_delete_then_reinsert_in_one_batch(self):
        graph = Graph(3, [(0, 1, 2.0)])
        # Deletes apply before inserts regardless of listed order, so
        # the insert lands on the already-deleted edge.
        updated, _ = graph.apply_updates(
            [("insert", 0, 1, 5.0), ("delete", 0, 1)]
        )
        assert updated.has_edge(0, 1)
        assert sorted(updated.edges()) == [(0, 1, 5.0)]


class TestDuplicateEvents:
    def test_duplicate_inserts_merge_by_summation(self):
        graph = Graph(4, [(0, 1)])
        updated, _ = graph.apply_updates(
            [("insert", 2, 3, 1.5), ("insert", 3, 2, 2.5)]
        )
        reference = Graph(4, [(0, 1), (2, 3, 1.5), (3, 2, 2.5)])
        _assert_csr_identical(updated, reference)
        assert sorted(updated.edges()) == [(0, 1, 1.0), (2, 3, 4.0)]

    def test_insert_onto_existing_edge_sums(self):
        graph = Graph(3, [(0, 1, 2.0)])
        updated, _ = graph.apply_updates([("insert", 1, 0, 3.0)])
        assert sorted(updated.edges()) == [(0, 1, 5.0)]

    def test_duplicate_reweights_last_wins(self):
        graph = Graph(3, [(0, 1, 2.0)])
        updated, _ = graph.apply_updates(
            [("reweight", 0, 1, 9.0), ("reweight", 1, 0, 4.0)]
        )
        assert sorted(updated.edges()) == [(0, 1, 4.0)]


class TestComponentChanges:
    def test_insert_bridges_components(self):
        graph = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        assert len(graph.connected_components()) == 2
        updated, _ = graph.apply_updates([("insert", 2, 3)])
        assert len(updated.connected_components()) == 1

    def test_delete_splits_components(self):
        graph = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
        assert len(graph.connected_components()) == 1
        updated, _ = graph.apply_updates([("delete", 2, 3)])
        assert len(updated.connected_components()) == 2
        # And the split graph matches direct construction entirely.
        _assert_csr_identical(
            updated, Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        )


class TestEmptyBatch:
    def test_empty_batch_returns_identical_csr(self):
        graph = Graph(5, [(0, 1, 2.0), (2, 2, 1.5), (3, 4)])
        updated, touched = graph.apply_updates([])
        assert updated is not graph
        assert touched.size == 0
        _assert_csr_identical(updated, graph)
        np.testing.assert_array_equal(updated.degrees, graph.degrees)
        assert updated.total_weight == graph.total_weight

    def test_empty_batch_preserves_has_edge_invariants(self):
        graph = Graph(5, [(1, 4), (0, 3), (2, 2)])
        updated, _ = graph.apply_updates([])
        indptr, indices, _ = updated.csr()
        # has_edge binary-searches each row: rows must stay sorted.
        for node in range(updated.n_nodes):
            row = indices[indptr[node] : indptr[node + 1]]
            assert np.all(np.diff(row) >= 0)
        for u in range(5):
            for v in range(5):
                assert updated.has_edge(u, v) == graph.has_edge(u, v)


class TestEventValidation:
    def test_unknown_op_raises(self):
        graph = Graph(3, [(0, 1)])
        with pytest.raises(GraphError):
            graph.apply_updates([("upsert", 0, 1)])

    def test_reweight_requires_weight(self):
        graph = Graph(3, [(0, 1)])
        with pytest.raises(GraphError):
            graph.apply_updates([("reweight", 0, 1)])

    def test_out_of_range_endpoint_raises(self):
        graph = Graph(3, [(0, 1)])
        with pytest.raises(GraphError):
            graph.apply_updates([("insert", 0, 3)])

    def test_dict_events_with_unknown_keys_raise(self):
        graph = Graph(3, [(0, 1)])
        with pytest.raises(GraphError):
            graph.apply_updates([{"op": "insert", "u": 0, "v": 1, "x": 2}])

    @pytest.mark.parametrize(
        "event",
        [
            {"op": "insert", "u": 1.5, "v": 2},
            {"op": "insert", "u": 0, "v": 2.9},
            ("delete", True, 1),
            ("insert", 0, "2"),
            ("insert", "x", 1),
            ("insert", 0, float("nan")),
        ],
        ids=["fractional-u", "fractional-v", "bool", "numeric-string",
             "string", "nan"],
    )
    def test_non_integer_endpoint_raises(self, event):
        graph = Graph(3, [(0, 1)])
        with pytest.raises(GraphError, match="non-integer endpoint"):
            graph.apply_updates([event])

    @pytest.mark.parametrize("weight", ["2.5", "abc", True, [1.0]])
    def test_non_numeric_weight_raises(self, weight):
        graph = Graph(3, [(0, 1)])
        event = {"op": "reweight", "u": 0, "v": 1, "w": weight}
        with pytest.raises(GraphError, match="non-numeric weight"):
            graph.apply_updates([event])

    def test_integral_numbers_are_nodes(self):
        graph = Graph(3, [(0, 1)])
        updated, touched = graph.apply_updates(
            [("insert", np.int64(1), 2.0, np.float32(0.5))]
        )
        assert updated.edge_weight(1, 2) == 0.5
        assert touched.tolist() == [1, 2]


def _replay_on_dict(
    graph: Graph, events: list
) -> tuple[Graph, np.ndarray]:
    """A batch replayed on a ``{(lo, hi): weights}`` edge model.

    Deletes apply first, then the last reweight per edge, then inserts
    in delivery order.  An edge's weight parts are summed the way
    ``np.add.reduceat`` sums a group of at most 8 entries: the first
    part plus the left-to-right sum of the rest.
    """

    def key(u: int, v: int) -> tuple[int, int]:
        return (min(u, v), max(u, v))

    parts = {(u, v): [w] for u, v, w in graph.edges()}
    for op, u, v, _ in events:
        if op == "delete":
            parts.pop(key(u, v), None)
    last = {key(u, v): w for op, u, v, w in events if op == "reweight"}
    for edge, w in last.items():
        parts[edge] = [w]
    for op, u, v, w in events:
        if op == "insert":
            parts.setdefault(key(u, v), []).append(1.0 if w is None else w)

    edges = []
    for (u, v), ws in parts.items():
        rest = 0.0
        for w in ws[1:]:
            rest += w
        edges.append((u, v, ws[0] + rest if len(ws) > 1 else ws[0]))
    touched = sorted({node for _, u, v, _ in events for node in (u, v)})
    return Graph(graph.n_nodes, edges), np.asarray(touched, dtype=np.int64)


def _random_batch(
    rng: np.random.Generator, graph: Graph
) -> list[tuple[str, int, int, float | None]]:
    """0–12 mixed events, fewer than 8 on any one edge.

    Endpoints come half from existing edges (either orientation) and
    half uniformly (self-loops included), so duplicate inserts and
    reweights, delete-then-reinsert and reweights of absent edges all
    occur.  Insert weights are sometimes left to default.
    """
    n = graph.n_nodes
    existing = list(graph.edges())
    per_edge: dict[tuple[int, int], int] = {}
    events = []
    for _ in range(int(rng.integers(0, 13))):
        if existing and rng.random() < 0.5:
            u, v, _ = existing[int(rng.integers(len(existing)))]
            if rng.random() < 0.5:
                u, v = v, u
        else:
            u, v = (int(x) for x in rng.integers(0, n, size=2))
        edge = (min(u, v), max(u, v))
        if per_edge.get(edge, 0) == 7:
            continue
        per_edge[edge] = per_edge.get(edge, 0) + 1
        op = ("insert", "delete", "reweight")[int(rng.integers(3))]
        w: float | None = float(rng.uniform(0.1, 5.0))
        if op == "delete" or (op == "insert" and rng.random() < 0.25):
            w = None
        events.append((op, u, v, w))
    return events


def _as_wire(event: tuple[str, int, int, float | None], as_dict: bool):
    op, u, v, w = event
    if as_dict:
        return {"op": op, "u": u, "v": v, **({} if w is None else {"w": w})}
    return (op, u, v) if w is None else (op, u, v, w)


class TestRandomizedCrossCheck:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_dict_edge_model(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            m = int(rng.integers(0, 2 * n + 1))
            base = Graph(
                n,
                [
                    (int(u), int(v), float(rng.uniform(0.1, 5.0)))
                    for u, v in rng.integers(0, n, size=(m, 2))
                ],
            )
            events = _random_batch(rng, base)
            wire = [_as_wire(e, rng.random() < 0.5) for e in events]
            updated, touched = base.apply_updates(wire)
            expected, expected_touched = _replay_on_dict(base, events)

            pairs = [
                *zip(updated.edge_arrays(), expected.edge_arrays()),
                *zip(updated.csr(), expected.csr()),
                (updated.degrees, expected.degrees),
                (touched, expected_touched),
            ]
            for got, want in pairs:
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)
            assert updated.total_weight == expected.total_weight
