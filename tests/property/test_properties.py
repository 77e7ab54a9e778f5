"""Hypothesis property-based tests on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.community.aggregate import aggregate_graph
from repro.community.metrics import (
    adjusted_rand_index,
    coverage,
    normalized_mutual_information,
)
from repro.community.modularity import modularity
from repro.community.refinement import refine_labels
from repro.graphs.graph import Graph
from repro.qubo.builders import VariableMap, build_community_qubo
from repro.qubo.decode import decode_assignment, labels_to_one_hot
from repro.qubo.model import QuboModel


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
@st.composite
def graphs(draw, max_nodes=12, max_extra_edges=20):
    """Connected-ish random graphs with optional weights and self-loops."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    n_edges = draw(st.integers(min_value=1, max_value=max_extra_edges))
    edges = []
    for _ in range(n_edges):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        w = draw(
            st.floats(
                min_value=0.1, max_value=10.0, allow_nan=False
            )
        )
        edges.append((u, v, w))
    return Graph(n, edges)


@st.composite
def graph_with_labels(draw, max_nodes=12, max_communities=4):
    graph = draw(graphs(max_nodes=max_nodes))
    k = draw(st.integers(min_value=1, max_value=max_communities))
    labels = draw(
        arrays(
            np.int64,
            graph.n_nodes,
            elements=st.integers(min_value=0, max_value=k - 1),
        )
    )
    return graph, labels


@st.composite
def qubo_models(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    q = draw(
        arrays(
            np.float64,
            (n, n),
            elements=st.floats(
                min_value=-5.0, max_value=5.0, allow_nan=False
            ),
        )
    )
    b = draw(
        arrays(
            np.float64,
            n,
            elements=st.floats(
                min_value=-5.0, max_value=5.0, allow_nan=False
            ),
        )
    )
    return QuboModel(q, b)


# ---------------------------------------------------------------------------
# Graph invariants
# ---------------------------------------------------------------------------
class TestGraphProperties:
    @given(graphs())
    @settings(max_examples=50, deadline=None)
    def test_degree_sum_is_twice_total_weight(self, graph):
        assert np.isclose(
            np.asarray(graph.degrees).sum(), 2.0 * graph.total_weight
        )

    @given(graphs())
    @settings(max_examples=50, deadline=None)
    def test_adjacency_symmetric(self, graph):
        a = graph.adjacency_matrix()
        np.testing.assert_allclose(a, a.T)

    @given(graphs())
    @settings(max_examples=50, deadline=None)
    def test_modularity_matrix_rows_sum_zero(self, graph):
        b = graph.modularity_matrix()
        np.testing.assert_allclose(b.sum(axis=1), 0.0, atol=1e-9)

    @given(graphs())
    @settings(max_examples=30, deadline=None)
    def test_components_partition_nodes(self, graph):
        components = graph.connected_components()
        all_nodes = np.concatenate(components)
        assert len(all_nodes) == graph.n_nodes
        assert len(np.unique(all_nodes)) == graph.n_nodes


# ---------------------------------------------------------------------------
# Modularity invariants
# ---------------------------------------------------------------------------
class TestModularityProperties:
    @given(graph_with_labels())
    @settings(max_examples=50, deadline=None)
    def test_modularity_bounded(self, graph_and_labels):
        graph, labels = graph_and_labels
        q = modularity(graph, labels)
        assert -1.0 <= q <= 1.0

    @given(graph_with_labels())
    @settings(max_examples=50, deadline=None)
    def test_label_permutation_invariance(self, graph_and_labels):
        graph, labels = graph_and_labels
        permuted = labels + 10  # renaming communities
        assert np.isclose(
            modularity(graph, labels), modularity(graph, permuted)
        )

    @given(graph_with_labels())
    @settings(max_examples=40, deadline=None)
    def test_aggregation_preserves_modularity(self, graph_and_labels):
        graph, labels = graph_and_labels
        aggregate, mapping = aggregate_graph(graph, labels)
        q_coarse = modularity(
            aggregate, np.arange(aggregate.n_nodes)
        )
        assert np.isclose(
            q_coarse, modularity(graph, labels), atol=1e-9
        )

    @given(graph_with_labels())
    @settings(max_examples=40, deadline=None)
    def test_refinement_never_hurts(self, graph_and_labels):
        graph, labels = graph_and_labels
        before = modularity(graph, labels)
        refined, _ = refine_labels(graph, labels, max_passes=3)
        assert modularity(graph, refined) >= before - 1e-9

    @given(graph_with_labels())
    @settings(max_examples=40, deadline=None)
    def test_coverage_bounds(self, graph_and_labels):
        graph, labels = graph_and_labels
        assert 0.0 <= coverage(graph, labels) <= 1.0


# ---------------------------------------------------------------------------
# QUBO invariants
# ---------------------------------------------------------------------------
class TestQuboProperties:
    @given(qubo_models(), st.integers(min_value=0, max_value=255))
    @settings(max_examples=60, deadline=None)
    def test_flip_deltas_consistent(self, model, bits):
        n = model.n_variables
        x = np.array(
            [(bits >> i) & 1 for i in range(n)], dtype=np.float64
        )
        deltas = model.flip_deltas(x)
        base = model.evaluate(x)
        for i in range(n):
            y = x.copy()
            y[i] = 1.0 - y[i]
            assert np.isclose(
                deltas[i], model.evaluate(y) - base, atol=1e-8
            )

    @given(qubo_models())
    @settings(max_examples=40, deadline=None)
    def test_batch_evaluate_matches_single(self, model):
        n = model.n_variables
        xs = np.array(
            [[(j >> i) & 1 for i in range(n)] for j in range(2**min(n, 4))],
            dtype=np.float64,
        )
        batch = model.evaluate_batch(xs)
        singles = [model.evaluate(x) for x in xs]
        np.testing.assert_allclose(batch, singles, atol=1e-9)


# ---------------------------------------------------------------------------
# Encode/decode roundtrip
# ---------------------------------------------------------------------------
class TestEncodingProperties:
    @given(
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=1, max_value=5),
        st.randoms(),
    )
    @settings(max_examples=50, deadline=None)
    def test_one_hot_roundtrip(self, n, k, rnd):
        labels = np.array(
            [rnd.randrange(k) for _ in range(n)], dtype=np.int64
        )
        x = labels_to_one_hot(labels, k)
        decoded = decode_assignment(x, VariableMap(n, k))
        np.testing.assert_array_equal(decoded, labels)

    @given(graph_with_labels(max_communities=3))
    @settings(max_examples=25, deadline=None)
    def test_qubo_energy_identity_on_valid_assignments(
        self, graph_and_labels
    ):
        """E(one_hot(labels)) == -Q(labels) when balance is disabled."""
        graph, labels = graph_and_labels
        if graph.total_weight == 0:
            return
        k = int(labels.max()) + 1
        cq = build_community_qubo(
            graph, k, lambda_assignment=1.0, lambda_balance=0.0
        )
        x = labels_to_one_hot(labels, k)
        assert np.isclose(
            cq.model.evaluate(x),
            -modularity(graph, labels),
            atol=1e-9,
        )


# ---------------------------------------------------------------------------
# Metric invariants
# ---------------------------------------------------------------------------
class TestMetricProperties:
    @given(
        arrays(
            np.int64,
            20,
            elements=st.integers(min_value=0, max_value=4),
        ),
        arrays(
            np.int64,
            20,
            elements=st.integers(min_value=0, max_value=4),
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_nmi_symmetric_and_bounded(self, a, b):
        value = normalized_mutual_information(a, b)
        assert 0.0 <= value <= 1.0
        assert np.isclose(
            value, normalized_mutual_information(b, a), atol=1e-9
        )

    @given(
        arrays(
            np.int64,
            15,
            elements=st.integers(min_value=0, max_value=3),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_self_comparison_perfect(self, labels):
        assert normalized_mutual_information(labels, labels) == pytest.approx(
            1.0
        )
        assert adjusted_rand_index(labels, labels) == pytest.approx(1.0)

    @given(
        arrays(
            np.int64,
            15,
            elements=st.integers(min_value=0, max_value=3),
        ),
        arrays(
            np.int64,
            15,
            elements=st.integers(min_value=0, max_value=3),
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_ari_upper_bound(self, a, b):
        assert adjusted_rand_index(a, b) <= 1.0 + 1e-12
