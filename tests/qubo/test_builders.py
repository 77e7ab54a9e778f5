"""Tests for the Algorithm 1 QUBO construction."""

import numpy as np
import pytest

from repro.community.modularity import modularity
from repro.exceptions import QuboError
from repro.graphs.generators import planted_partition_graph, ring_of_cliques
from repro.graphs.graph import Graph
from repro.qubo import CommunityQuboPatcher, QuboModel, SparseQuboModel
from repro.qubo.builders import (
    VariableMap,
    build_community_qubo,
    default_penalties,
)
from repro.qubo.decode import labels_to_one_hot
from repro.qubo.random_instances import random_qubo


class TestVariableMap:
    def test_index_formula(self):
        vm = VariableMap(4, 3)
        assert vm.index(0, 0) == 0
        assert vm.index(1, 0) == 3
        assert vm.index(2, 1) == 7
        assert vm.n_variables == 12

    def test_pair_inverse(self):
        vm = VariableMap(5, 4)
        for flat in range(vm.n_variables):
            node, community = vm.pair(flat)
            assert vm.index(node, community) == flat

    def test_bounds_checked(self):
        vm = VariableMap(2, 2)
        with pytest.raises(QuboError):
            vm.index(2, 0)
        with pytest.raises(QuboError):
            vm.index(0, 2)
        with pytest.raises(QuboError):
            vm.pair(4)

    def test_reshape(self):
        vm = VariableMap(2, 3)
        x = np.arange(6, dtype=float)
        m = vm.reshape(x)
        assert m.shape == (2, 3)
        assert m[1, 2] == 5.0

    def test_reshape_wrong_size(self):
        vm = VariableMap(2, 3)
        with pytest.raises(QuboError):
            vm.reshape(np.zeros(5))


class TestDefaultPenalties:
    def test_positive(self, tiny_graph):
        a, s = default_penalties(tiny_graph, 2)
        assert a > 0 and s > 0
        assert s < a  # balance is softer than assignment

    def test_empty_graph(self):
        a, s = default_penalties(Graph(3), 2)
        assert a == 1.0 and s == 0.1


class TestBuildCommunityQubo:
    def test_variable_count(self, tiny_graph):
        cq = build_community_qubo(tiny_graph, 2)
        assert cq.model.n_variables == 12

    def test_rejects_empty_graph(self):
        with pytest.raises(QuboError):
            build_community_qubo(Graph(0), 2)

    def test_valid_assignment_energy_identity(self, tiny_graph):
        """E(x) = -w1*Q(labels) + balance for valid one-hot x (Eq. 5)."""
        k = 2
        cq = build_community_qubo(
            tiny_graph, k, lambda_balance=0.0, lambda_assignment=3.0
        )
        for labels in ([0, 0, 0, 1, 1, 1], [0, 1, 0, 1, 0, 1], [0] * 6):
            labels = np.asarray(labels)
            x = labels_to_one_hot(labels, k)
            energy = cq.model.evaluate(x)
            q = modularity(tiny_graph, labels)
            assert np.isclose(energy, -q, atol=1e-12)

    def test_balance_term_value(self, tiny_graph):
        k = 2
        lam = 0.7
        cq = build_community_qubo(
            tiny_graph,
            k,
            lambda_balance=lam,
            lambda_assignment=1.0,
            modularity_weight=0.0,
        )
        labels = np.asarray([0, 0, 0, 0, 1, 1])  # sizes 4, 2 with n/k = 3
        x = labels_to_one_hot(labels, k)
        expected = lam * ((4 - 3) ** 2 + (2 - 3) ** 2)
        assert np.isclose(cq.model.evaluate(x), expected)

    def test_assignment_penalty_on_violations(self, tiny_graph):
        lam = 2.0
        cq = build_community_qubo(
            tiny_graph,
            2,
            lambda_assignment=lam,
            lambda_balance=0.0,
            modularity_weight=0.0,
        )
        # All-zero assignment: every node violates -> n * lam.
        assert np.isclose(
            cq.model.evaluate(np.zeros(12)), 6 * lam
        )
        # One node assigned to both communities: (1 - 2)^2 = 1 violation.
        x = np.zeros(12)
        x[0] = x[1] = 1.0
        assert np.isclose(cq.model.evaluate(x), 5 * lam + lam)

    def test_optimum_recovers_planted_communities(self):
        graph, truth = ring_of_cliques(2, 4)
        cq = build_community_qubo(graph, 2, lambda_balance=0.0)
        x, _ = cq.model.brute_force_minimum(max_variables=16)
        labels = np.argmax(x.reshape(8, 2), axis=1)
        same = (labels[:4] == labels[0]).all() and (
            labels[4:] == labels[4]
        ).all()
        assert same and labels[0] != labels[4]

    def test_optimal_energy_beats_any_invalid(self):
        graph, _ = ring_of_cliques(2, 3)
        cq = build_community_qubo(graph, 2)
        x_opt, e_opt = cq.model.brute_force_minimum(max_variables=12)
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.integers(0, 2, size=12).astype(float)
            assert cq.model.evaluate(x) >= e_opt - 1e-12

    def test_cut_weight_adds_reward(self, tiny_graph):
        base = build_community_qubo(
            tiny_graph, 2, lambda_assignment=1.0, lambda_balance=0.0
        )
        with_cut = build_community_qubo(
            tiny_graph,
            2,
            lambda_assignment=1.0,
            lambda_balance=0.0,
            cut_weight=0.5,
        )
        labels = np.asarray([0, 0, 0, 1, 1, 1])
        x = labels_to_one_hot(labels, 2)
        # 6 intra edges kept together, each rewarded by -2 * 0.5 * w.
        assert np.isclose(
            with_cut.model.evaluate(x), base.model.evaluate(x) - 6.0
        )

    def test_modularity_weight_scales(self, tiny_graph):
        cq1 = build_community_qubo(
            tiny_graph, 2, lambda_assignment=0.0, lambda_balance=0.0,
            modularity_weight=1.0,
        )
        cq2 = build_community_qubo(
            tiny_graph, 2, lambda_assignment=0.0, lambda_balance=0.0,
            modularity_weight=2.0,
        )
        labels = np.asarray([0, 0, 0, 1, 1, 1])
        x = labels_to_one_hot(labels, 2)
        assert np.isclose(
            cq2.model.evaluate(x), 2.0 * cq1.model.evaluate(x)
        )

    def test_auto_penalties_dominate_single_violation(self):
        """With auto penalties, the optimum is a valid assignment."""
        graph, _ = planted_partition_graph(2, 4, 0.9, 0.05, seed=0)
        cq = build_community_qubo(graph, 2)
        x, _ = cq.model.brute_force_minimum(max_variables=16)
        rows = x.reshape(8, 2).sum(axis=1)
        np.testing.assert_array_equal(rows, np.ones(8))

    def test_k_one_trivial(self, tiny_graph):
        cq = build_community_qubo(tiny_graph, 1, lambda_balance=0.0)
        x = np.ones(6)
        q_all = modularity(tiny_graph, np.zeros(6, dtype=int))
        assert np.isclose(cq.model.evaluate(x), -q_all, atol=1e-12)

    def test_modularity_of_helper(self, tiny_graph):
        cq = build_community_qubo(tiny_graph, 2)
        labels = np.asarray([0, 0, 0, 1, 1, 1])
        x = labels_to_one_hot(labels, 2)
        assert np.isclose(
            cq.modularity_of(x), modularity(tiny_graph, labels)
        )


class TestOneHotBlocks:
    """Only the community builders mark their Eq. 3 groups."""

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_both_backends_mark_nodes_by_communities(self, backend):
        graph, _ = ring_of_cliques(3, 4)
        model = build_community_qubo(graph, 3, backend=backend).model
        assert model.one_hot_blocks() == (12, 3)

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_no_assignment_penalty_no_marker(self, backend):
        graph, _ = ring_of_cliques(3, 4)
        qubo = build_community_qubo(
            graph, 3, lambda_assignment=0.0, backend=backend
        )
        assert qubo.model.one_hot_blocks() is None

    def test_other_models_carry_none(self):
        graph, _ = ring_of_cliques(3, 4)
        dense = build_community_qubo(graph, 3, backend="dense").model
        sparse = build_community_qubo(graph, 3, backend="sparse").model
        others = [
            random_qubo(12, 0.5, seed=0),
            QuboModel(np.asarray(dense.coupling), dense.effective_linear),
            sparse.to_dense(),
            SparseQuboModel.from_dense(dense),
        ]
        for model in others:
            assert model.one_hot_blocks() is None

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_patcher_keeps_the_marker(self, backend):
        graph, _ = ring_of_cliques(3, 4)
        original = build_community_qubo(graph, 3, backend=backend)
        patcher = CommunityQuboPatcher(original)
        updated = patcher.update(
            graph.apply_updates([("insert", 0, 7, 1.5)])[0]
        )
        assert updated.model is not original.model
        assert updated.model.one_hot_blocks() == (12, 3)
