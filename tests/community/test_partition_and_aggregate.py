"""Tests for Partition and graph aggregation."""

import numpy as np
import pytest

from repro.community.aggregate import aggregate_graph
from repro.community.modularity import modularity
from repro.community.partition import Partition
from repro.exceptions import PartitionError
from repro.graphs.generators import planted_partition_graph
from repro.graphs.graph import Graph


class TestPartition:
    def test_basics(self):
        p = Partition([0, 0, 1, 2, 2])
        assert p.n_nodes == 5
        assert p.n_communities == 3
        assert p.sizes() == {0: 2, 1: 1, 2: 2}

    def test_members(self):
        p = Partition([0, 1, 0])
        np.testing.assert_array_equal(p.members(0), [0, 2])

    def test_communities_ordered(self):
        p = Partition([3, 1, 3, 1])
        comms = p.communities()
        np.testing.assert_array_equal(comms[0], [1, 3])
        np.testing.assert_array_equal(comms[1], [0, 2])

    def test_compacted(self):
        p = Partition([5, 5, 9, 2]).compacted()
        np.testing.assert_array_equal(p.labels, [0, 0, 1, 2])

    def test_immutable(self):
        p = Partition([0, 1])
        with pytest.raises(ValueError):
            p.labels[0] = 5

    def test_rejects_negative(self):
        with pytest.raises(PartitionError):
            Partition([-1, 0])

    def test_rejects_2d(self):
        with pytest.raises(PartitionError):
            Partition(np.zeros((2, 2), dtype=int))

    def test_equality_and_hash(self):
        assert Partition([0, 1]) == Partition([0, 1])
        assert Partition([0, 1]) != Partition([1, 0])
        assert hash(Partition([0, 1])) == hash(Partition([0, 1]))

    def test_empty(self):
        p = Partition([])
        assert p.n_nodes == 0
        assert p.n_communities == 0


class TestAggregateGraph:
    def test_two_triangles(self, tiny_graph):
        labels = np.array([0, 0, 0, 1, 1, 1])
        agg, mapping = aggregate_graph(tiny_graph, labels)
        assert agg.n_nodes == 2
        # Self-loop of weight 3 per triangle, one bridge of weight 1.
        assert np.isclose(agg.edge_weight(0, 0), 3.0)
        assert np.isclose(agg.edge_weight(1, 1), 3.0)
        assert np.isclose(agg.edge_weight(0, 1), 1.0)

    def test_preserves_total_weight(self, planted_graph):
        graph, truth = planted_graph
        agg, _ = aggregate_graph(graph, truth)
        assert np.isclose(agg.total_weight, graph.total_weight)

    def test_preserves_degree_sums(self, planted_graph):
        graph, truth = planted_graph
        agg, mapping = aggregate_graph(graph, truth)
        sums = np.zeros(agg.n_nodes)
        np.add.at(sums, mapping, np.asarray(graph.degrees))
        np.testing.assert_allclose(sums, np.asarray(agg.degrees))

    def test_modularity_invariance(self):
        graph, truth = planted_partition_graph(3, 10, 0.5, 0.05, seed=4)
        agg, mapping = aggregate_graph(graph, truth)
        q_fine = modularity(graph, truth)
        q_coarse = modularity(agg, np.arange(agg.n_nodes))
        assert np.isclose(q_fine, q_coarse, atol=1e-12)

    def test_non_contiguous_labels(self):
        g = Graph(3, [(0, 1), (1, 2)])
        agg, mapping = aggregate_graph(g, np.array([7, 7, 3]))
        assert agg.n_nodes == 2
        # Label 3 maps to super-node 0 (ascending original label).
        assert mapping[2] == 0

    def test_wrong_length(self, tiny_graph):
        with pytest.raises(PartitionError):
            aggregate_graph(tiny_graph, np.zeros(2, dtype=int))

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_dict_merge_reference(self, seed):
        """Same super-edges as a per-edge dict merge, weights to rounding.

        The reference sums each super-edge left to right; the vectorised
        merge may sum a group pairwise, so weights agree within
        ``m * eps`` relative, the bound for summing m positive terms in
        any order.
        """
        rng = np.random.default_rng(seed)
        graph, _ = planted_partition_graph(4, 30, 0.3, 0.05, seed=seed)
        _, u, v, _ = graph.to_arrays()
        graph = Graph.from_arrays(
            graph.n_nodes, u, v, rng.uniform(0.5, 2.0, len(u))
        )
        labels = rng.choice([3, 8, 11, 20, 42], size=graph.n_nodes)
        agg, mapping = aggregate_graph(graph, labels)

        unique = sorted(set(labels.tolist()))
        expected_mapping = [unique.index(c) for c in labels.tolist()]
        merged: dict[tuple[int, int], float] = {}
        for a, b, w in graph.edges():
            ca, cb = sorted((expected_mapping[a], expected_mapping[b]))
            merged[(ca, cb)] = merged.get((ca, cb), 0.0) + w
        expected = sorted(merged.items())

        assert mapping.tolist() == expected_mapping
        assert agg.n_nodes == len(unique)
        assert [(a, b) for a, b, _ in agg.edges()] == [e for e, _ in expected]
        np.testing.assert_allclose(
            [w for _, _, w in agg.edges()],
            [w for _, w in expected],
            rtol=graph.n_edges * np.finfo(np.float64).eps,
            atol=0,
        )
