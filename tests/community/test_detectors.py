"""Tests for the direct, multilevel and end-to-end detectors."""

import numpy as np
import pytest

from repro.community.detector import QhdCommunityDetector
from repro.community.direct import DirectQuboDetector
from repro.community.metrics import normalized_mutual_information
from repro.community.modularity import modularity
from repro.community.multilevel import MultilevelConfig, MultilevelDetector
from repro.exceptions import SolverError
from repro.graphs.generators import planted_partition_graph, ring_of_cliques
from repro.qhd.solver import QhdSolver
from repro.solvers.branch_and_bound import BranchAndBoundSolver
from repro.solvers.simulated_annealing import SimulatedAnnealingSolver


def sa_solver(seed=0):
    return SimulatedAnnealingSolver(n_sweeps=150, n_restarts=3, seed=seed)


def fast_qhd(seed=0):
    return QhdSolver(n_samples=8, n_steps=60, grid_points=12, seed=seed)


class TestDirectQuboDetector:
    def test_recovers_cliques_with_sa(self):
        graph, truth = ring_of_cliques(3, 5)
        result = DirectQuboDetector(sa_solver()).detect(graph, 3)
        assert normalized_mutual_information(result.labels, truth) == 1.0

    def test_recovers_cliques_with_qhd(self):
        graph, truth = ring_of_cliques(3, 5)
        result = DirectQuboDetector(fast_qhd()).detect(graph, 3)
        assert normalized_mutual_information(result.labels, truth) == 1.0

    def test_recovers_cliques_with_bnb(self):
        graph, truth = ring_of_cliques(3, 5)
        result = DirectQuboDetector(
            BranchAndBoundSolver(max_nodes=20_000)
        ).detect(graph, 3)
        assert normalized_mutual_information(result.labels, truth) == 1.0

    def test_result_fields(self, clique_ring):
        graph, _ = clique_ring
        result = DirectQuboDetector(sa_solver()).detect(graph, 4)
        assert result.method == "direct-qubo[simulated-annealing]"
        assert result.wall_time > 0
        assert result.solve_result is not None
        assert result.metadata["n_variables"] == graph.n_nodes * 4
        assert np.isclose(
            result.modularity, modularity(graph, result.labels)
        )

    def test_modularity_reported_consistent(self, planted_graph):
        graph, _ = planted_graph
        result = DirectQuboDetector(sa_solver()).detect(graph, 3)
        assert np.isclose(
            result.modularity, modularity(graph, result.labels)
        )

    def test_refinement_helps_weak_solver(self, planted_graph):
        graph, _ = planted_graph
        weak = SimulatedAnnealingSolver(n_sweeps=3, n_restarts=1, seed=0)
        raw = DirectQuboDetector(weak, refine_passes=0).detect(graph, 3)
        refined = DirectQuboDetector(weak, refine_passes=10).detect(graph, 3)
        assert refined.modularity >= raw.modularity - 1e-12

    def test_rejects_non_solver(self):
        with pytest.raises(SolverError):
            DirectQuboDetector(solver="gurobi")

    def test_k_bounds_respected(self, planted_graph):
        graph, _ = planted_graph
        result = DirectQuboDetector(sa_solver()).detect(graph, 2)
        assert result.n_communities <= 2


class TestMultilevelDetector:
    def test_runs_and_beats_random(self):
        graph, truth = planted_partition_graph(4, 30, 0.3, 0.02, seed=0)
        detector = MultilevelDetector(
            sa_solver(), config=MultilevelConfig(threshold=30)
        )
        result = detector.detect(graph, 4)
        assert result.modularity > 0.4
        assert result.metadata["levels"] >= 1

    def test_small_graph_degenerates_to_direct(self, clique_ring):
        graph, truth = clique_ring
        detector = MultilevelDetector(
            BranchAndBoundSolver(max_nodes=20_000),
            config=MultilevelConfig(threshold=100),
        )
        result = detector.detect(graph, 4)
        assert result.metadata["levels"] == 0
        assert normalized_mutual_information(result.labels, truth) == 1.0

    def test_refinement_monotone_through_levels(self):
        """Final modularity is at least the base-level modularity."""
        graph, _ = planted_partition_graph(4, 40, 0.25, 0.02, seed=1)
        detector = MultilevelDetector(
            sa_solver(), config=MultilevelConfig(threshold=40)
        )
        result = detector.detect(graph, 4)
        assert (
            result.modularity
            >= result.metadata["base_modularity"] - 1e-9
        )

    def test_method_label(self):
        graph, _ = planted_partition_graph(3, 25, 0.3, 0.03, seed=2)
        detector = MultilevelDetector(
            sa_solver(), config=MultilevelConfig(threshold=25)
        )
        assert "multilevel[simulated-annealing]" == detector.detect(
            graph, 3
        ).method

    def test_degree_cap_keeps_structure(self):
        """With the cap, coarsest graph keeps more than one node per
        planted community."""
        graph, truth = planted_partition_graph(4, 30, 0.35, 0.01, seed=3)
        detector = MultilevelDetector(
            sa_solver(),
            config=MultilevelConfig(threshold=12, degree_limit_factor=1.0),
        )
        result = detector.detect(graph, 4)
        assert result.metadata["coarsest_nodes"] > 4

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MultilevelConfig(threshold=1)
        with pytest.raises(ValueError):
            MultilevelConfig(degree_limit_factor=-1.0)


class TestQhdCommunityDetector:
    def test_small_graph_uses_direct(self, clique_ring):
        graph, truth = clique_ring
        detector = QhdCommunityDetector(
            qhd_samples=8, qhd_steps=60, qhd_grid_points=12, seed=0
        )
        result = detector.detect(graph, 4)
        assert result.method.startswith("direct-qubo")
        assert normalized_mutual_information(result.labels, truth) == 1.0

    def test_large_graph_uses_multilevel(self):
        graph, _ = planted_partition_graph(4, 30, 0.3, 0.02, seed=4)
        detector = QhdCommunityDetector(
            solver=sa_solver(), direct_threshold=50
        )
        result = detector.detect(graph, 4)
        assert result.method.startswith("multilevel")

    def test_custom_solver_passthrough(self, clique_ring):
        graph, _ = clique_ring
        detector = QhdCommunityDetector(solver=sa_solver())
        result = detector.detect(graph, 4)
        assert "simulated-annealing" in result.method
