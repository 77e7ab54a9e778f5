"""Integration tests crossing module boundaries.

These exercise the complete pipelines a user would run: graph in,
communities out, with each solver; plus cross-solver consistency checks
that mirror the paper's evaluation methodology.
"""

import numpy as np
import pytest

from repro.community.detector import QhdCommunityDetector
from repro.community.direct import DirectQuboDetector
from repro.community.louvain import louvain
from repro.community.metrics import (
    adjusted_rand_index,
    normalized_mutual_information,
)
from repro.community.modularity import modularity
from repro.community.multilevel import MultilevelConfig, MultilevelDetector
from repro.graphs.generators import (
    planted_partition_graph,
    power_law_cluster_graph,
    ring_of_cliques,
)
from repro.graphs.io import read_edge_list, write_edge_list
from repro.qhd.exact import ExactQuboQhd
from repro.qhd.solver import QhdSolver
from repro.qubo.builders import build_community_qubo
from repro.qubo.decode import decode_assignment
from repro.solvers.branch_and_bound import BranchAndBoundSolver
from repro.solvers.bruteforce import BruteForceSolver
from repro.solvers.simulated_annealing import SimulatedAnnealingSolver


class TestFullPipelines:
    def test_qubo_pipeline_equals_bruteforce_decode(self):
        """QUBO -> exact solve -> decode recovers the best partition."""
        graph, truth = ring_of_cliques(2, 4)
        cq = build_community_qubo(graph, 2)
        result = BruteForceSolver().solve(cq.model)
        labels = decode_assignment(
            result.x, cq.variable_map, graph=graph
        )
        assert normalized_mutual_information(labels, truth) == 1.0

    def test_qhd_vs_exact_on_community_qubo(self):
        """QHD matches the exact optimum on a small CD QUBO (Fig. 4)."""
        graph, _ = ring_of_cliques(2, 4)
        cq = build_community_qubo(graph, 2)
        exact = BruteForceSolver().solve(cq.model)
        qhd = QhdSolver(
            n_samples=12, n_steps=80, grid_points=12, seed=0
        ).solve(cq.model)
        assert np.isclose(qhd.energy, exact.energy, atol=1e-9)

    def test_detector_agreement_across_solvers(self):
        """All pipelines find the same communities on an easy graph."""
        graph, truth = planted_partition_graph(3, 12, 0.7, 0.02, seed=0)
        solvers = [
            QhdSolver(n_samples=8, n_steps=60, grid_points=12, seed=0),
            SimulatedAnnealingSolver(n_sweeps=200, n_restarts=3, seed=0),
            BranchAndBoundSolver(max_nodes=20_000),
        ]
        for solver in solvers:
            result = DirectQuboDetector(solver).detect(graph, 3)
            assert (
                normalized_mutual_information(result.labels, truth)
                == 1.0
            ), solver.name

    def test_multilevel_matches_direct_on_medium_graph(self):
        graph, truth = planted_partition_graph(4, 25, 0.4, 0.02, seed=1)
        sa = SimulatedAnnealingSolver(n_sweeps=200, n_restarts=3, seed=0)
        direct = DirectQuboDetector(sa).detect(graph, 4)
        multilevel = MultilevelDetector(
            sa, config=MultilevelConfig(threshold=30)
        ).detect(graph, 4)
        assert abs(direct.modularity - multilevel.modularity) < 0.05

    def test_qhd_pipeline_vs_louvain_quality(self):
        """The paper's pipeline is competitive with Louvain."""
        graph, _ = planted_partition_graph(4, 20, 0.45, 0.03, seed=2)
        q_louvain = modularity(graph, louvain(graph))
        result = QhdCommunityDetector(
            qhd_samples=12, qhd_steps=80, qhd_grid_points=12, seed=0
        ).detect(graph, 4)
        assert result.modularity >= q_louvain - 0.03

    def test_io_roundtrip_through_detection(self, tmp_path):
        """Detection quality survives an edge-list write/read cycle.

        Note: read_edge_list relabels nodes by first appearance, so labels
        cannot be compared against the original ground truth directly —
        modularity (relabelling-invariant) is the right yardstick.
        """
        graph, truth = ring_of_cliques(3, 5)
        path = tmp_path / "graph.txt"
        write_edge_list(graph, path)
        loaded = read_edge_list(path)
        assert loaded.n_nodes == graph.n_nodes
        assert loaded.n_edges == graph.n_edges
        assert np.isclose(loaded.total_weight, graph.total_weight)
        result = DirectQuboDetector(
            BranchAndBoundSolver(max_nodes=20_000)
        ).detect(loaded, 3)
        assert np.isclose(
            result.modularity, modularity(graph, truth), atol=1e-9
        )

    def test_power_law_graph_end_to_end(self):
        graph = power_law_cluster_graph(90, 2, 0.5, seed=3)
        detector = QhdCommunityDetector(
            solver=SimulatedAnnealingSolver(
                n_sweeps=150, n_restarts=2, seed=0
            ),
            direct_threshold=50,
        )
        result = detector.detect(graph, 4)
        assert result.method.startswith("multilevel")
        assert result.modularity > 0.2

    def test_exact_qhd_agrees_with_mean_field_on_tiny(self):
        """The product-state solver matches full tensor QHD at n=2."""
        from repro.qubo.random_instances import random_qubo

        for seed in range(4):
            model = random_qubo(2, 1.0, seed=seed)
            x_exact, e_exact = ExactQuboQhd(
                grid_points=12, n_steps=100
            ).solve(model)
            mean_field = QhdSolver(
                n_samples=8, n_steps=60, grid_points=12, seed=seed
            ).solve(model)
            assert np.isclose(mean_field.energy, e_exact, atol=1e-9)


class TestTimeMatchedComparison:
    """The paper's §V-B methodology in miniature."""

    def test_time_matched_protocol(self):
        from repro.qubo.random_instances import random_qubo

        model = random_qubo(120, 0.05, seed=4)
        qhd = QhdSolver(
            n_samples=8, n_steps=60, grid_points=12, seed=0
        ).solve(model)
        exact = BranchAndBoundSolver(
            time_limit=max(0.05, qhd.wall_time)
        ).solve(model)
        # Protocol invariants: both produce valid energies; the exact
        # solver respects its budget within scheduling noise.
        assert exact.wall_time < max(0.05, qhd.wall_time) * 3 + 0.5
        for result in (qhd, exact):
            assert np.isclose(
                result.energy, model.evaluate(result.x.astype(float))
            )

    def test_equal_seeds_reproduce_full_comparison(self):
        from repro.experiments.solver_comparison import (
            SolverComparisonConfig,
            run_solver_comparison,
        )

        config = SolverComparisonConfig(
            portfolio_scale=0.003,
            qhd_samples=4,
            qhd_steps=30,
            qhd_grid_points=8,
            min_time_limit=0.1,
        )
        a = run_solver_comparison(config)
        b = run_solver_comparison(config)
        assert [o.qhd_energy for o in a.outcomes] == [
            o.qhd_energy for o in b.outcomes
        ]


class TestRobustness:
    def test_detection_on_disconnected_graph(self):
        from repro.graphs.graph import Graph

        # Two separate triangles plus isolated nodes.
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        graph = Graph(8, edges)
        result = DirectQuboDetector(
            SimulatedAnnealingSolver(n_sweeps=150, n_restarts=3, seed=0)
        ).detect(graph, 2)
        labels = result.labels
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4] == labels[5]
        assert labels[0] != labels[3]

    def test_detection_k_larger_than_structure(self):
        graph, truth = ring_of_cliques(2, 5)
        result = DirectQuboDetector(
            SimulatedAnnealingSolver(n_sweeps=200, n_restarts=3, seed=0),
            lambda_balance=0.0,
        ).detect(graph, 5)
        # k=5 offered, but only 2 planted communities are worth using.
        assert adjusted_rand_index(result.labels, truth) == 1.0

    def test_weighted_graph_detection(self):
        from repro.graphs.graph import Graph

        # Weights define the communities; topology alone is a 6-cycle.
        edges = [
            (0, 1, 10.0),
            (1, 2, 10.0),
            (2, 3, 0.1),
            (3, 4, 10.0),
            (4, 5, 10.0),
            (5, 0, 0.1),
        ]
        graph = Graph(6, edges)
        result = DirectQuboDetector(
            SimulatedAnnealingSolver(n_sweeps=200, n_restarts=3, seed=0)
        ).detect(graph, 2)
        labels = result.labels
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4] == labels[5]
