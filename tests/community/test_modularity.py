"""Tests for modularity (Eq. 1) and community degree sums."""

import numpy as np
import pytest

from repro.community.modularity import community_degree_sums, modularity
from repro.exceptions import PartitionError
from repro.graphs.generators import planted_partition_graph, ring_of_cliques
from repro.graphs.graph import Graph
from repro.graphs.lfr import lfr_graph


class TestModularity:
    def test_known_value_two_triangles(self, tiny_graph):
        labels = np.array([0, 0, 0, 1, 1, 1])
        # 2m = 14; internal per community = 2*3 edges doubled = 12;
        # degree sums are 7 and 7.
        expected = (12.0 - (49 + 49) / 14.0) / 14.0
        assert np.isclose(modularity(tiny_graph, labels), expected)

    def test_single_community_zero(self, tiny_graph):
        assert np.isclose(
            modularity(tiny_graph, np.zeros(6, dtype=int)), 0.0
        )

    def test_singletons_negative(self, tiny_graph):
        value = modularity(tiny_graph, np.arange(6))
        assert value < 0

    def test_ground_truth_near_optimal(self):
        graph, truth = ring_of_cliques(5, 6)
        q_truth = modularity(graph, truth)
        rng = np.random.default_rng(0)
        for _ in range(20):
            random_labels = rng.integers(0, 5, size=graph.n_nodes)
            assert modularity(graph, random_labels) <= q_truth

    def test_empty_graph(self):
        assert modularity(Graph(4), np.zeros(4, dtype=int)) == 0.0

    def test_matches_networkx(self):
        import networkx as nx

        graph, truth = planted_partition_graph(3, 12, 0.5, 0.05, seed=7)
        communities = [
            set(np.flatnonzero(truth == c).tolist()) for c in range(3)
        ]
        expected = nx.algorithms.community.modularity(
            graph.to_networkx(), communities
        )
        assert np.isclose(modularity(graph, truth), expected, atol=1e-12)

    def test_weighted_graph(self):
        g = Graph(4, [(0, 1, 3.0), (2, 3, 3.0), (1, 2, 1.0)])
        labels = np.array([0, 0, 1, 1])
        import networkx as nx

        expected = nx.algorithms.community.modularity(
            g.to_networkx(), [{0, 1}, {2, 3}], weight="weight"
        )
        assert np.isclose(modularity(g, labels), expected)

    def test_wrong_length_rejected(self, tiny_graph):
        with pytest.raises(PartitionError):
            modularity(tiny_graph, np.zeros(3, dtype=int))

    def test_negative_labels_rejected(self, tiny_graph):
        with pytest.raises(PartitionError):
            modularity(tiny_graph, np.full(6, -1))

    def test_self_loop_convention(self):
        # One node with a self-loop, one isolated: Q of the singleton
        # partition must be 0 (all weight internal, null model saturated).
        g = Graph(2, [(0, 0, 2.0)])
        assert modularity(g, np.array([0, 1])) == 0.0

    def test_bit_identical_to_numpy_indexed_loop(self):
        # The edge loop reads labels from a list; same additions in the
        # same order as the earlier loop over the numpy array.
        def numpy_indexed(graph, labels):
            labels = np.asarray(labels, dtype=np.int64)
            two_m = 2.0 * graph.total_weight
            edge_u, edge_v, edge_w = graph.edge_arrays()
            internal = 0.0
            for u, v, w in zip(
                edge_u.tolist(), edge_v.tolist(), edge_w.tolist()
            ):
                if labels[u] == labels[v]:
                    internal += 2.0 * w
            null = float(
                np.sum(community_degree_sums(graph, labels) ** 2)
            ) / two_m
            return (internal - null) / two_m

        graph = lfr_graph(1000, mixing=0.2, seed=3)[0]
        rng = np.random.default_rng(3)
        for labels in (
            rng.integers(0, 8, graph.n_nodes),
            rng.integers(0, 40, graph.n_nodes) * 3,  # gappy labels
        ):
            assert modularity(graph, labels) == numpy_indexed(graph, labels)
        weighted = Graph(
            5, [(0, 1, 0.3), (1, 2, 1.7), (2, 2, 0.9), (3, 4, 2.2)]
        )
        labels = np.array([0, 0, 0, 2, 2])
        assert modularity(weighted, labels) == numpy_indexed(
            weighted, labels
        )


class TestCommunityDegreeSums:
    def test_values(self, tiny_graph):
        labels = np.array([0, 0, 0, 1, 1, 1])
        sums = community_degree_sums(tiny_graph, labels)
        np.testing.assert_allclose(sums, [7.0, 7.0])

    def test_total_is_2m(self, planted_graph):
        graph, truth = planted_graph
        sums = community_degree_sums(graph, truth)
        assert np.isclose(sums.sum(), 2.0 * graph.total_weight)
