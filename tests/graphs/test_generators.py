"""Tests for the random-graph generators."""

import numpy as np
import pytest

from repro.exceptions import GraphError
from repro.graphs.generators import (
    erdos_renyi_graph,
    planted_partition_graph,
    power_law_cluster_graph,
    ring_of_cliques,
    stochastic_block_model_graph,
)


class TestErdosRenyi:
    def test_size(self):
        assert erdos_renyi_graph(30, 0.1, seed=0).n_nodes == 30

    def test_reproducible(self):
        a = erdos_renyi_graph(40, 0.2, seed=5)
        b = erdos_renyi_graph(40, 0.2, seed=5)
        assert a == b

    def test_p_zero_is_empty(self):
        assert erdos_renyi_graph(20, 0.0, seed=0).n_edges == 0

    def test_p_one_is_complete(self):
        g = erdos_renyi_graph(10, 1.0, seed=0)
        assert g.n_edges == 45

    def test_expected_edge_count(self):
        g = erdos_renyi_graph(200, 0.1, seed=1)
        expected = 0.1 * 200 * 199 / 2
        assert abs(g.n_edges - expected) < 0.25 * expected

    def test_no_self_loops(self):
        g = erdos_renyi_graph(50, 0.3, seed=2)
        assert all(u != v for u, v, _ in g.edges())

    def test_tiny_graphs(self):
        assert erdos_renyi_graph(0, 0.5).n_nodes == 0
        assert erdos_renyi_graph(1, 0.5).n_edges == 0


class TestSbm:
    def test_labels_match_sizes(self):
        probs = np.array([[0.5, 0.01], [0.01, 0.5]])
        graph, labels = stochastic_block_model_graph([10, 15], probs, seed=0)
        assert graph.n_nodes == 25
        assert np.sum(labels == 0) == 10
        assert np.sum(labels == 1) == 15

    def test_assortative_structure(self):
        probs = np.array([[0.6, 0.01], [0.01, 0.6]])
        graph, labels = stochastic_block_model_graph([25, 25], probs, seed=1)
        intra = sum(
            1 for u, v, _ in graph.edges() if labels[u] == labels[v]
        )
        assert intra > 0.8 * graph.n_edges

    def test_rejects_asymmetric(self):
        with pytest.raises(GraphError, match="symmetric"):
            stochastic_block_model_graph(
                [5, 5], np.array([[0.5, 0.1], [0.2, 0.5]])
            )

    def test_rejects_bad_shape(self):
        with pytest.raises(GraphError, match="2x2"):
            stochastic_block_model_graph([5, 5], np.eye(3))

    def test_rejects_out_of_range_probs(self):
        with pytest.raises(GraphError):
            stochastic_block_model_graph(
                [5, 5], np.array([[1.5, 0.0], [0.0, 0.5]])
            )

    def test_zero_inter_block(self):
        probs = np.array([[0.8, 0.0], [0.0, 0.8]])
        graph, labels = stochastic_block_model_graph([10, 10], probs, seed=2)
        assert all(
            labels[u] == labels[v] for u, v, _ in graph.edges()
        )


class TestPlantedPartition:
    def test_shape(self):
        graph, labels = planted_partition_graph(3, 10, 0.5, 0.05, seed=0)
        assert graph.n_nodes == 30
        assert len(np.unique(labels)) == 3

    def test_reproducible(self):
        a, _ = planted_partition_graph(2, 10, 0.4, 0.1, seed=9)
        b, _ = planted_partition_graph(2, 10, 0.4, 0.1, seed=9)
        assert a == b


class TestPowerLawCluster:
    def test_size(self):
        g = power_law_cluster_graph(60, 3, 0.4, seed=0)
        assert g.n_nodes == 60

    def test_connected(self):
        g = power_law_cluster_graph(80, 2, 0.3, seed=1)
        assert len(g.connected_components()) == 1

    def test_heavy_tail(self):
        g = power_law_cluster_graph(300, 3, 0.2, seed=2)
        degrees = np.asarray(g.degrees)
        assert degrees.max() > 4 * degrees.mean()

    def test_rejects_m_ge_n(self):
        with pytest.raises(GraphError):
            power_law_cluster_graph(5, 5, 0.1)

    def test_min_degree(self):
        m = 3
        g = power_law_cluster_graph(50, m, 0.0, seed=3)
        degrees = np.asarray(g.degrees)
        assert degrees[m:].min() >= m


class TestRingOfCliques:
    def test_structure(self):
        graph, labels = ring_of_cliques(4, 5)
        assert graph.n_nodes == 20
        # 4 cliques of C(5,2)=10 edges + 4 bridges.
        assert graph.n_edges == 44

    def test_two_cliques_single_bridge(self):
        graph, _ = ring_of_cliques(2, 3)
        assert graph.n_edges == 2 * 3 + 1

    def test_single_clique(self):
        graph, labels = ring_of_cliques(1, 4)
        assert graph.n_edges == 6
        assert len(np.unique(labels)) == 1

    def test_labels(self):
        _, labels = ring_of_cliques(3, 4)
        assert np.array_equal(labels, np.repeat([0, 1, 2], 4))

    def test_deterministic(self):
        a, _ = ring_of_cliques(3, 4)
        b, _ = ring_of_cliques(3, 4)
        assert a == b
