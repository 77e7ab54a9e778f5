"""Tests for adaptive penalty detection."""

import pytest

from repro.community.adaptive import AdaptivePenaltyDetector
from repro.community.metrics import normalized_mutual_information
from repro.graphs.generators import planted_partition_graph, ring_of_cliques
from repro.solvers.simulated_annealing import SimulatedAnnealingSolver


class TestAdaptivePenaltyDetector:
    def _solver(self):
        return SimulatedAnnealingSolver(
            n_sweeps=120, n_restarts=2, seed=0
        )

    def test_recovers_cliques(self):
        graph, truth = ring_of_cliques(3, 5)
        detector = AdaptivePenaltyDetector(self._solver())
        result = detector.detect(graph, 3)
        assert normalized_mutual_information(result.labels, truth) == 1.0
        assert result.method.startswith("adaptive-")

    def test_rounds_recorded(self):
        graph, _ = planted_partition_graph(3, 10, 0.5, 0.05, seed=1)
        detector = AdaptivePenaltyDetector(self._solver(), max_rounds=3)
        result = detector.detect(graph, 3)
        assert 1 <= result.metadata["rounds"] <= 3
        assert len(result.metadata["penalty_history"]) == (
            result.metadata["rounds"]
        )

    def test_escalation_increases_penalty(self):
        graph, _ = planted_partition_graph(3, 10, 0.5, 0.05, seed=2)
        detector = AdaptivePenaltyDetector(
            self._solver(),
            initial_scale=1e-6,  # deliberately hopeless start
            escalation=10.0,
            max_rounds=3,
        )
        result = detector.detect(graph, 3)
        history = result.metadata["penalty_history"]
        lambdas = [h[0] for h in history]
        assert all(b > a for a, b in zip(lambdas, lambdas[1:]))

    def test_rejects_non_escalating_factor(self):
        with pytest.raises(ValueError):
            AdaptivePenaltyDetector(self._solver(), escalation=1.0)

    def test_quality_not_worse_than_plain_direct(self):
        from repro.community.direct import DirectQuboDetector

        graph, _ = planted_partition_graph(4, 10, 0.5, 0.03, seed=3)
        plain = DirectQuboDetector(self._solver()).detect(graph, 4)
        adaptive = AdaptivePenaltyDetector(self._solver()).detect(graph, 4)
        assert adaptive.modularity >= plain.modularity - 0.05
