"""Dense/sparse backend equivalence and sparse-first memory guarantees.

Property tests asserting that :class:`QuboModel` and
:class:`SparseQuboModel` (with and without low-rank factors) agree on
every energy/field operation, that the vectorized
:func:`build_community_qubo` reproduces the seed loop-based builder's
coefficients exactly, and that the sparse path never allocates an
O((n k)^2) dense array.
"""

import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from repro.graphs.generators import (
    erdos_renyi_graph,
    planted_partition_graph,
    ring_of_cliques,
)
from repro.graphs.graph import Graph
from repro.graphs.lfr import lfr_graph
from repro.qubo.builders import (
    DENSE_VARIABLE_LIMIT,
    build_community_qubo,
    select_backend,
)
from repro.qubo.model import QuboModel
from repro.qubo.random_instances import random_qubo
from repro.qubo.sparse import SparseQuboModel


def _assert_models_agree(dense, other, rng, atol=1e-9):
    """All BaseQubo operations agree for binary and relaxed inputs."""
    n = dense.n_variables
    assert other.n_variables == n
    binary = (rng.random((4, n)) < 0.5).astype(np.float64)
    relaxed = rng.random((4, n))
    for batch in (binary, relaxed):
        np.testing.assert_allclose(
            other.evaluate_batch(batch),
            dense.evaluate_batch(batch),
            atol=atol,
        )
        np.testing.assert_allclose(
            other.local_fields_batch(batch),
            dense.local_fields_batch(batch),
            atol=atol,
        )
        for x in batch:
            assert np.isclose(
                other.evaluate(x), dense.evaluate(x), atol=atol
            )
            np.testing.assert_allclose(
                other.local_fields(x), dense.local_fields(x), atol=atol
            )
            np.testing.assert_allclose(
                other.flip_deltas(x), dense.flip_deltas(x), atol=atol
            )
            for index in range(0, n, max(1, n // 5)):
                assert np.isclose(
                    other.flip_delta(x, index),
                    dense.flip_delta(x, index),
                    atol=atol,
                )


class TestDenseSparseEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n,density", [(8, 0.3), (20, 0.15), (30, 0.5)])
    def test_random_instances(self, seed, n, density):
        dense = random_qubo(n, density, seed=seed)
        sparse_model = SparseQuboModel.from_dense(dense)
        rng = np.random.default_rng(seed + 100)
        _assert_models_agree(dense, sparse_model, rng)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_factor_models_match_their_dense_expansion(self, seed):
        rng = np.random.default_rng(seed)
        n, n_factors = 15, 4
        coupling = sparse.random(
            n, n, density=0.25, random_state=seed, format="csr"
        )
        factor_matrix = sparse.random(
            n_factors, n, density=0.5, random_state=seed + 1, format="csr"
        )
        alpha = rng.normal(size=n_factors)
        beta = rng.normal(size=n_factors)
        linear = rng.normal(size=n)
        model = SparseQuboModel(
            coupling, linear, 0.5, factors=(alpha, factor_matrix, beta)
        )
        dense = model.to_dense()
        _assert_models_agree(dense, model, rng)

    def test_roundtrip_through_dense(self):
        dense = random_qubo(12, 0.4, seed=3)
        back = SparseQuboModel.from_dense(dense).to_dense()
        np.testing.assert_allclose(
            np.asarray(back.coupling), np.asarray(dense.coupling)
        )
        np.testing.assert_allclose(
            back.effective_linear, dense.effective_linear
        )
        assert back.offset == dense.offset

    def test_coupling_row_abs_sums_dense(self):
        dense = random_qubo(10, 0.5, seed=4)
        np.testing.assert_allclose(
            dense.coupling_row_abs_sums(),
            np.abs(np.asarray(dense.coupling)).sum(axis=1),
        )

    def test_coupling_row_abs_sums_blocked_bit_exact(self):
        """Summed a block of rows at a time, equal to the whole |S|."""
        graph, _ = lfr_graph(112, mixing=0.2, seed=8)
        community = build_community_qubo(graph, 8, backend="dense").model
        for dense in (community, random_qubo(150, 0.5, seed=4)):
            np.testing.assert_array_equal(
                dense.coupling_row_abs_sums(),
                np.abs(dense.coupling).sum(axis=1),
            )


class TestCommunityBuilderEquivalence:
    @pytest.mark.parametrize(
        "graph_factory,k",
        [
            (lambda: ring_of_cliques(3, 5)[0], 2),
            (lambda: planted_partition_graph(3, 6, 0.8, 0.1, seed=1)[0], 3),
            (lambda: Graph(5, [(0, 0, 2.0), (0, 1), (1, 2, 3.0), (3, 4)]), 2),
        ],
    )
    def test_sparse_matches_dense(self, graph_factory, k):
        graph = graph_factory()
        dense = build_community_qubo(
            graph, k, cut_weight=0.4, backend="dense"
        )
        sparse_cq = build_community_qubo(
            graph, k, cut_weight=0.4, backend="sparse"
        )
        assert dense.backend == "dense"
        assert sparse_cq.backend == "sparse"
        rng = np.random.default_rng(7)
        _assert_models_agree(dense.model, sparse_cq.model, rng)

    def test_sparse_and_dense_share_the_optimum(self):
        graph, _ = ring_of_cliques(2, 4)
        dense = build_community_qubo(graph, 2, backend="dense")
        sparse_cq = build_community_qubo(graph, 2, backend="sparse")
        x_dense, e_dense = dense.model.brute_force_minimum(max_variables=16)
        e_sparse = sparse_cq.model.evaluate(x_dense.astype(np.float64))
        assert np.isclose(e_sparse, e_dense, atol=1e-9)

    def test_vectorized_builder_matches_seed_loop_builder(self):
        """The dense builder's coefficients are bit-identical to the seed
        per-node/per-edge loop construction (offset within one ulp: the
        seed accumulated ``n`` scalar adds where we multiply once)."""
        for graph, k, cut in (
            (ring_of_cliques(3, 4)[0], 2, 0.0),
            (planted_partition_graph(2, 5, 0.9, 0.1, seed=3)[0], 3, 0.5),
            (Graph(4, [(0, 0, 1.5), (0, 1), (2, 3, 2.0)]), 2, 0.25),
        ):
            built = build_community_qubo(
                graph, k, cut_weight=cut, backend="dense"
            )
            reference = _seed_loop_builder(
                graph,
                k,
                built.lambda_assignment,
                built.lambda_balance,
                built.modularity_weight,
                cut,
            )
            np.testing.assert_array_equal(
                np.asarray(built.model.coupling),
                np.asarray(reference.coupling),
            )
            np.testing.assert_array_equal(
                built.model.effective_linear, reference.effective_linear
            )
            assert np.isclose(
                built.model.offset, reference.offset, rtol=1e-14
            )


class TestBackendSelection:
    def test_small_instances_stay_dense(self):
        graph, _ = ring_of_cliques(3, 5)
        assert select_backend(graph, 4) == "dense"
        cq = build_community_qubo(graph, 4)
        assert cq.backend == "dense"
        assert isinstance(cq.model, QuboModel)

    def test_large_instances_go_sparse(self):
        graph = erdos_renyi_graph(800, 0.01, seed=0)
        assert graph.n_nodes * 4 > DENSE_VARIABLE_LIMIT
        assert select_backend(graph, 4) == "sparse"
        cq = build_community_qubo(graph, 4)
        assert cq.backend == "sparse"
        assert isinstance(cq.model, SparseQuboModel)

    def test_forced_backends_override_auto(self):
        graph, _ = ring_of_cliques(2, 4)
        assert isinstance(
            build_community_qubo(graph, 2, backend="sparse").model,
            SparseQuboModel,
        )
        graph_big = erdos_renyi_graph(700, 0.01, seed=1)
        assert isinstance(
            build_community_qubo(graph_big, 4, backend="dense").model,
            QuboModel,
        )

    def test_sparse_path_never_allocates_dense_matrix(self):
        """The 1,000-node / k=4 acceptance instance: a dense (nk)^2
        matrix would be 128 MB; the sparse build must stay far below."""
        graph = erdos_renyi_graph(1000, 0.008, seed=0)
        k = 4
        nk = graph.n_nodes * k
        dense_bytes = nk * nk * 8
        tracemalloc.start()
        try:
            cq = build_community_qubo(graph, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cq.backend == "sparse"
        assert isinstance(cq.model, SparseQuboModel)
        # Far below one dense matrix — not within a factor of two of it.
        assert peak < dense_bytes / 8, (
            f"sparse build peaked at {peak / 1e6:.1f} MB, dense matrix "
            f"would be {dense_bytes / 1e6:.1f} MB"
        )
        # And the model still answers energy queries.
        x = np.zeros(nk)
        assert np.isfinite(cq.model.evaluate(x))


def _seed_loop_builder(graph, k, lambda_a, lambda_s, w1, w3):
    """Verbatim re-implementation of the seed's loop-based Algorithm 1
    assembly, kept as the ground-truth oracle for the vectorized one."""
    n = graph.n_nodes
    nk = n * k
    quadratic = np.zeros((nk, nk), dtype=np.float64)
    linear = np.zeros(nk, dtype=np.float64)
    offset = 0.0
    two_m = 2.0 * graph.total_weight
    if two_m > 0 and w1 > 0:
        scaled = -w1 * (graph.modularity_matrix() / two_m)
        for c in range(k):
            idx = np.arange(c, nk, k)
            quadratic[np.ix_(idx, idx)] += scaled
    if lambda_a > 0:
        for i in range(n):
            idx = np.arange(i * k, (i + 1) * k)
            linear[idx] += -lambda_a
            quadratic[np.ix_(idx, idx)] += lambda_a
            quadratic[idx, idx] -= lambda_a
            offset += lambda_a
    if lambda_s > 0:
        target = n / k
        for c in range(k):
            idx = np.arange(c, nk, k)
            linear[idx] += lambda_s * (1.0 - 2.0 * target)
            quadratic[np.ix_(idx, idx)] += lambda_s
            quadratic[idx, idx] -= lambda_s
            offset += lambda_s * target * target
    if w3 > 0:
        edge_u, edge_v, edge_w = graph.edge_arrays()
        for u, v, w in zip(
            edge_u.tolist(), edge_v.tolist(), edge_w.tolist()
        ):
            if u == v:
                continue
            for c in range(k):
                iu, iv = u * k + c, v * k + c
                quadratic[min(iu, iv), max(iu, iv)] += -2.0 * w3 * w
    return QuboModel(quadratic, linear, offset)
