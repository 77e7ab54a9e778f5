"""Tests for local-moving refinement and the Louvain baseline."""

import numpy as np
import pytest

from repro.community.louvain import louvain
from repro.community.modularity import modularity
from repro.community.refinement import refine_labels
from repro.community.metrics import normalized_mutual_information
from repro.exceptions import PartitionError
from repro.graphs.generators import (
    planted_partition_graph,
    ring_of_cliques,
)
from repro.graphs.graph import Graph


class TestRefineLabels:
    def test_never_decreases_modularity(self):
        graph, _ = planted_partition_graph(3, 15, 0.4, 0.05, seed=0)
        rng = np.random.default_rng(1)
        for _ in range(5):
            start = rng.integers(0, 3, size=graph.n_nodes)
            before = modularity(graph, start)
            refined, _ = refine_labels(graph, start)
            assert modularity(graph, refined) >= before - 1e-12

    def test_recovers_cliques_from_noisy_start(self):
        graph, truth = ring_of_cliques(4, 6)
        noisy = truth.copy()
        rng = np.random.default_rng(2)
        flip = rng.choice(graph.n_nodes, size=5, replace=False)
        noisy[flip] = (noisy[flip] + 1) % 4
        refined, moves = refine_labels(graph, noisy)
        assert moves > 0
        assert normalized_mutual_information(refined, truth) == 1.0

    def test_fixed_point_makes_no_moves(self):
        graph, truth = ring_of_cliques(3, 6)
        refined, moves1 = refine_labels(graph, truth)
        again, moves2 = refine_labels(graph, refined)
        assert moves2 == 0

    def test_input_not_mutated(self, tiny_graph):
        labels = np.array([0, 1, 0, 1, 0, 1])
        copy = labels.copy()
        refine_labels(tiny_graph, labels)
        np.testing.assert_array_equal(labels, copy)

    def test_empty_graph(self):
        labels, moves = refine_labels(Graph(3), np.zeros(3, dtype=int))
        assert moves == 0

    def test_wrong_shape(self, tiny_graph):
        with pytest.raises(PartitionError):
            refine_labels(tiny_graph, np.zeros(2, dtype=int))

    def test_negative_labels_rejected(self):
        # A -1 used to wrap onto the last degree-sum slot and silently
        # refine a different partition than the one given.
        graph, truth = planted_partition_graph(3, 15, 0.4, 0.05, seed=0)
        start = np.where(truth == 0, -1, truth)
        with pytest.raises(PartitionError, match="non-negative"):
            refine_labels(graph, start)

    def test_fractional_labels_rejected(self):
        graph, truth = planted_partition_graph(3, 15, 0.4, 0.05, seed=0)
        with pytest.raises(PartitionError, match="integers"):
            refine_labels(graph, truth + 0.5)

    def test_integral_float_labels_accepted(self):
        graph, truth = planted_partition_graph(3, 15, 0.4, 0.05, seed=0)
        start = np.random.default_rng(4).integers(0, 3, graph.n_nodes)
        as_float = start.astype(np.float64)
        got, got_moves = refine_labels(graph, as_float)
        want, want_moves = refine_labels(graph, start)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)
        assert got_moves == want_moves > 0
        np.testing.assert_array_equal(as_float, start.astype(np.float64))

    def test_max_passes_respected(self):
        graph, _ = planted_partition_graph(4, 15, 0.3, 0.05, seed=3)
        start = np.arange(graph.n_nodes)
        _, moves_one = refine_labels(graph, start, max_passes=1)
        assert moves_one <= graph.n_nodes


class TestLouvain:
    def test_recovers_ring_of_cliques(self):
        graph, truth = ring_of_cliques(5, 6)
        labels = louvain(graph)
        assert normalized_mutual_information(labels, truth) == 1.0

    def test_recovers_planted_partition(self):
        graph, truth = planted_partition_graph(4, 25, 0.4, 0.02, seed=5)
        labels = louvain(graph)
        assert normalized_mutual_information(labels, truth) > 0.9

    def test_quality_beats_random(self):
        graph, _ = planted_partition_graph(3, 20, 0.3, 0.05, seed=6)
        q = modularity(graph, louvain(graph))
        assert q > 0.3

    def test_compact_labels(self):
        graph, _ = ring_of_cliques(3, 5)
        labels = louvain(graph)
        assert set(labels.tolist()) == set(range(len(set(labels.tolist()))))

    def test_empty_graph(self):
        assert len(louvain(Graph(0))) == 0

    def test_edgeless_graph(self):
        labels = louvain(Graph(5))
        assert len(labels) == 5

    def test_deterministic(self):
        graph, _ = planted_partition_graph(3, 15, 0.4, 0.05, seed=7)
        np.testing.assert_array_equal(louvain(graph), louvain(graph))
