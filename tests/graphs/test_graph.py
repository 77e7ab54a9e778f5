"""Tests for the Graph container."""

import numpy as np
import pytest

from repro.exceptions import GraphError
from repro.graphs.graph import Graph


class TestConstruction:
    def test_empty_graph(self):
        g = Graph(0)
        assert g.n_nodes == 0
        assert g.n_edges == 0
        assert g.total_weight == 0.0

    def test_isolated_nodes(self):
        g = Graph(5)
        assert g.n_nodes == 5
        assert all(g.degree(i) == 0.0 for i in range(5))

    def test_simple_edges(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert g.n_edges == 2
        assert g.total_weight == 2.0

    def test_weighted_edges(self):
        g = Graph(2, [(0, 1, 2.5)])
        assert g.total_weight == 2.5
        assert g.edge_weight(0, 1) == 2.5

    def test_duplicate_edges_merge(self):
        g = Graph(2, [(0, 1, 1.0), (1, 0, 2.0)])
        assert g.n_edges == 1
        assert g.edge_weight(0, 1) == 3.0

    def test_rejects_negative_n(self):
        with pytest.raises(GraphError):
            Graph(-1)

    def test_rejects_bool_n(self):
        with pytest.raises(GraphError):
            Graph(True)

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(GraphError, match="outside"):
            Graph(2, [(0, 2)])

    def test_rejects_negative_weight(self):
        with pytest.raises(GraphError, match="negative"):
            Graph(2, [(0, 1, -1.0)])

    def test_rejects_nan_weight(self):
        with pytest.raises(GraphError, match="non-finite"):
            Graph(2, [(0, 1, float("nan"))])

    def test_rejects_bad_tuple(self):
        with pytest.raises(GraphError, match="must be"):
            Graph(2, [(0,)])

    def test_rejects_non_sequence_edge(self):
        with pytest.raises(GraphError, match="must be"):
            Graph(2, [(0, 1), 5])

    @pytest.mark.parametrize(
        "edges",
        [
            [(0, 1.5)],
            [(0, 1), (2.25, 1, 3.0)],
            np.array([[0.0, 1.0], [1.0, 2.5]]),
            [(0, float("nan"))],
            [("0", "1"), (1, 2)],
            [(True, 2), (1, 2)],
            [(np.bool_(True), 2)],
        ],
        ids=["tuple", "weighted-tuple", "array", "nan", "string", "bool",
             "numpy-bool"],
    )
    def test_rejects_fractional_node_ids(self, edges):
        with pytest.raises(GraphError, match="non-integer node id"):
            Graph(3, edges)

    @pytest.mark.parametrize("weight", ["2.5", True, None])
    def test_rejects_non_numeric_weights(self, weight):
        with pytest.raises(GraphError, match="non-numeric weight"):
            Graph(3, [(0, 1), (1, 2, weight)])

    @pytest.mark.parametrize(
        "edges",
        [np.array([[True, False]]), np.array([["0", "1"]])],
        ids=["bool", "string"],
    )
    def test_rejects_bool_and_string_arrays(self, edges):
        with pytest.raises(GraphError, match="integer or float dtype"):
            Graph(3, edges)

    def test_numpy_scalars_are_numbers(self):
        g = Graph(3, [(np.int64(0), np.float64(1.0)), (1, 2, np.float32(0.5))])
        assert sorted(g.edges()) == [(0, 1, 1.0), (1, 2, 0.5)]

    def test_integral_float_ids_are_nodes(self):
        g = Graph(3, np.array([[0.0, 1.0], [1.0, 2.0]]))
        assert sorted(g.edges()) == [(0, 1, 1.0), (1, 2, 1.0)]

    def test_from_arrays_rejects_fractional_node_ids(self):
        with pytest.raises(GraphError, match="non-integer node id"):
            Graph.from_arrays(3, np.array([0.0]), np.array([1.5]))

    @pytest.mark.parametrize(
        "arrays",
        [
            (np.array([True]), np.array([False])),
            (np.array(["0"]), np.array(["1"])),
            ([0], [1], ["2.5"]),
            ([0], [1], [True]),
        ],
        ids=["bool-ids", "string-ids", "string-weights", "bool-weights"],
    )
    def test_from_arrays_rejects_bool_and_string_arrays(self, arrays):
        with pytest.raises(GraphError, match="integer or float dtype"):
            Graph.from_arrays(3, *arrays)

    def test_from_arrays(self):
        g = Graph.from_arrays(
            3, np.array([0, 1]), np.array([1, 2]), np.array([1.0, 2.0])
        )
        assert g.n_edges == 2
        assert g.edge_weight(1, 2) == 2.0

    def test_from_arrays_default_weights(self):
        g = Graph.from_arrays(3, np.array([0]), np.array([1]))
        assert g.edge_weight(0, 1) == 1.0


class TestDegrees:
    def test_degree_simple(self, tiny_graph):
        assert tiny_graph.degree(2) == 3.0  # triangle + bridge

    def test_self_loop_counts_twice(self):
        g = Graph(1, [(0, 0, 1.5)])
        assert g.degree(0) == 3.0

    def test_degrees_sum_to_2m(self, tiny_graph):
        assert np.isclose(
            tiny_graph.degrees.sum(), 2.0 * tiny_graph.total_weight
        )

    def test_degrees_readonly(self, tiny_graph):
        with pytest.raises(ValueError):
            tiny_graph.degrees[0] = 99.0


class TestQueries:
    def test_neighbors(self, tiny_graph):
        assert sorted(tiny_graph.neighbors(0).tolist()) == [1, 2]

    def test_neighbors_out_of_range(self, tiny_graph):
        with pytest.raises(GraphError):
            tiny_graph.neighbors(99)

    def test_neighbor_weights_aligned(self):
        g = Graph(3, [(0, 1, 2.0), (0, 2, 3.0)])
        nbrs = g.neighbors(0).tolist()
        weights = g.neighbor_weights(0).tolist()
        assert dict(zip(nbrs, weights)) == {1: 2.0, 2: 3.0}

    def test_has_edge(self, tiny_graph):
        assert tiny_graph.has_edge(2, 3)
        assert not tiny_graph.has_edge(0, 5)
        assert not tiny_graph.has_edge(0, 99)

    def test_edge_weight_absent(self, tiny_graph):
        assert tiny_graph.edge_weight(0, 5) == 0.0

    def test_edges_canonical_order(self):
        g = Graph(3, [(2, 0), (1, 0)])
        edges = list(g.edges())
        assert all(u <= v for u, v, _ in edges)

    def test_density(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert np.isclose(g.density, 2 * 2 / (4 * 3))

    def test_density_ignores_self_loops(self):
        g = Graph(3, [(0, 0), (0, 1)])
        assert np.isclose(g.density, 2 * 1 / (3 * 2))

    def test_density_tiny(self):
        assert Graph(1).density == 0.0


class TestMatrices:
    def test_adjacency_symmetric(self, tiny_graph):
        a = tiny_graph.adjacency_matrix()
        np.testing.assert_array_equal(a, a.T)

    def test_adjacency_values(self):
        g = Graph(2, [(0, 1, 2.0)])
        a = g.adjacency_matrix()
        assert a[0, 1] == 2.0 and a[1, 0] == 2.0

    def test_adjacency_self_loop_once(self):
        g = Graph(1, [(0, 0, 2.0)])
        assert g.adjacency_matrix()[0, 0] == 2.0

    def test_sparse_matches_dense(self, tiny_graph):
        dense = tiny_graph.adjacency_matrix()
        sparse = tiny_graph.sparse_adjacency().toarray()
        np.testing.assert_allclose(dense, sparse)

    def test_modularity_matrix_rows_sum_zero(self, tiny_graph):
        b = tiny_graph.modularity_matrix()
        np.testing.assert_allclose(b.sum(axis=1), 0.0, atol=1e-12)

    def test_modularity_matrix_self_loop_doubled(self):
        g = Graph(2, [(0, 0, 1.0), (0, 1, 1.0)])
        b = g.modularity_matrix()
        # A_ii = 2w = 2; degree d_0 = 3, 2m = 4.
        assert np.isclose(b[0, 0], 2.0 - 9.0 / 4.0)


class TestStructure:
    def test_connected_components(self):
        g = Graph(5, [(0, 1), (2, 3)])
        comps = g.connected_components()
        assert sorted(len(c) for c in comps) == [1, 2, 2]

    def test_single_component(self, clique_ring):
        graph, _ = clique_ring
        assert len(graph.connected_components()) == 1

    def test_subgraph(self, tiny_graph):
        sub, nodes = tiny_graph.subgraph([0, 1, 2])
        assert sub.n_nodes == 3
        assert sub.n_edges == 3  # the triangle
        np.testing.assert_array_equal(nodes, [0, 1, 2])

    def test_subgraph_relabels(self, tiny_graph):
        sub, nodes = tiny_graph.subgraph([3, 4, 5])
        assert sub.n_edges == 3
        assert sub.has_edge(0, 1)

    def test_subgraph_rejects_duplicates(self, tiny_graph):
        with pytest.raises(GraphError, match="unique"):
            tiny_graph.subgraph([0, 0])


class TestVectorizedPaths:
    def test_ndarray_edge_input(self):
        arr = np.array([[0, 1, 2.0], [1, 2, 3.0], [0, 1, 1.0]])
        g = Graph(3, arr)
        assert g.n_edges == 2
        assert g.edge_weight(0, 1) == 3.0  # duplicates merged

    def test_ndarray_without_weights(self):
        g = Graph(3, np.array([[0, 1], [1, 2]]))
        assert g.total_weight == 2.0

    def test_mixed_tuple_lengths(self):
        g = Graph(3, [(0, 1), (1, 2, 2.0)])
        assert g.edge_weight(0, 1) == 1.0
        assert g.edge_weight(1, 2) == 2.0

    def test_from_arrays_equals_tuple_constructor(self):
        rng = np.random.default_rng(0)
        n, m = 60, 300
        u = rng.integers(0, n, size=m)
        v = rng.integers(0, n, size=m)
        w = rng.random(m) + 0.1
        from_tuples = Graph(n, list(zip(u.tolist(), v.tolist(), w.tolist())))
        from_arrays = Graph.from_arrays(n, u, v, w)
        assert from_tuples == from_arrays

    def test_from_arrays_rejects_mismatched_lengths(self):
        with pytest.raises(GraphError, match="equal lengths"):
            Graph.from_arrays(3, np.array([0]), np.array([1, 2]))

    def test_from_arrays_validates_bounds(self):
        with pytest.raises(GraphError, match="outside"):
            Graph.from_arrays(2, np.array([0]), np.array([5]))

    def test_neighbors_sorted_ascending(self):
        rng = np.random.default_rng(1)
        n, m = 40, 200
        g = Graph.from_arrays(
            n, rng.integers(0, n, size=m), rng.integers(0, n, size=m)
        )
        for node in range(n):
            nbs = g.neighbors(node)
            assert np.all(nbs[:-1] <= nbs[1:])

    def test_edge_queries_match_adjacency_matrix(self):
        rng = np.random.default_rng(2)
        n, m = 30, 120
        g = Graph.from_arrays(
            n,
            rng.integers(0, n, size=m),
            rng.integers(0, n, size=m),
            rng.random(m),
        )
        a = g.adjacency_matrix()
        for u in range(n):
            for v in range(n):
                assert g.has_edge(u, v) == (a[u, v] != 0.0)
                assert np.isclose(g.edge_weight(u, v), a[u, v])

    def test_components_ordered_by_smallest_member(self):
        g = Graph(6, [(4, 5), (0, 3), (1, 2)])
        comps = g.connected_components()
        assert [int(c[0]) for c in comps] == [0, 1, 4]
        for comp in comps:
            assert np.all(comp[:-1] <= comp[1:])

    def test_components_empty_graph(self):
        assert Graph(0).connected_components() == []

    def test_subgraph_rejects_out_of_range(self, tiny_graph):
        with pytest.raises(GraphError, match="lie in"):
            tiny_graph.subgraph([0, 99])

    def test_subgraph_preserves_weights_and_loops(self):
        g = Graph(4, [(0, 0, 2.0), (0, 1, 1.5), (2, 3)])
        sub, _ = g.subgraph([0, 1])
        assert sub.edge_weight(0, 0) == 2.0
        assert sub.edge_weight(0, 1) == 1.5
        assert sub.n_edges == 2


class TestConversions:
    def test_networkx_roundtrip(self, tiny_graph):
        nx_graph = tiny_graph.to_networkx()
        back = Graph.from_networkx(nx_graph)
        assert back == tiny_graph

    def test_from_networkx_weights(self):
        import networkx as nx

        g = nx.Graph()
        g.add_edge("a", "b", weight=2.0)
        graph = Graph.from_networkx(g)
        assert graph.total_weight == 2.0

    def test_equality(self):
        a = Graph(2, [(0, 1)])
        b = Graph(2, [(1, 0)])
        assert a == b

    def test_inequality(self):
        assert Graph(2, [(0, 1)]) != Graph(2, [])

    def test_repr(self, tiny_graph):
        assert "n_nodes=6" in repr(tiny_graph)
