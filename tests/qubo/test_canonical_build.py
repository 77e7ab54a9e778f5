"""Both community-QUBO builders against frozen copies of their old paths.

``frozen_build_dense`` is the dense Algorithm 1 assembly as it was
before the builder wrote canonical form directly: it fills a raw,
non-symmetric ``(nk, nk)`` matrix term by term (``np.ix_`` block
scatters, the cut reward on the upper entry only) and canonicalises it
the way ``QuboModel.__init__`` does — ``0.5 * (q + q.T)``, diagonal
folded into the linear term, diagonal zeroed.

The new builder must reproduce that coupling and effective linear term
byte for byte (``tobytes()``, so signed zeros count) and the offset
exactly, and the ``(n, k, M, a)`` Kronecker terms it records must
rebuild the coupling.  Models that do not come from the dense builder
carry no Kronecker terms.

``frozen_build_sparse`` is the sparse assembly as it was before the
builder wrote canonical CSR directly: COO triplets for the adjacency,
self-loop and cut couplings and for the factor rows, canonicalised the
way ``SparseQuboModel.__init__`` did — ``(m + m.T) * 0.5``, the
diagonal folded into the linear term, then the factor fold.  The
stream rebuilds its sparse QUBO through this builder on every event
batch, so ``TestSparseCanonicalAssembly`` is what pins the stream's
sparse models: every coupling and factor array, index dtypes included,
the effective linear term byte for byte, the offset, the factor row
layout and the one-hot marker.
"""

import numpy as np
import pytest
from scipy import sparse

from repro.community.multilevel import MultilevelConfig
from repro.exceptions import QuboError
from repro.graphs.coarsen import coarsen_to_threshold
from repro.graphs.generators import ring_of_cliques
from repro.graphs.graph import Graph
from repro.graphs.lfr import lfr_graph
from repro.qubo import (
    CommunityQuboPatcher,
    QuboModel,
    SparseQuboModel,
    build_community_qubo,
)
from repro.qubo.builders import default_penalties
from repro.qubo.sparse import _row_progressions


def frozen_build_dense(
    graph, k, lambda_assignment, lambda_balance, modularity_weight,
    cut_weight,
):
    """The pre-canonical ``_build_dense`` + ``QuboModel.__init__``.

    Returns ``(coupling, effective_linear, offset)``.
    """
    n = graph.n_nodes
    nk = n * k
    quadratic = np.zeros((nk, nk), dtype=np.float64)
    linear = np.zeros(nk, dtype=np.float64)
    offset = 0.0

    two_m = 2.0 * graph.total_weight
    if two_m > 0 and modularity_weight > 0:
        b_matrix = graph.modularity_matrix() / two_m
        scaled = -modularity_weight * b_matrix
        for c in range(k):
            idx = np.arange(c, nk, k)
            quadratic[np.ix_(idx, idx)] += scaled

    if lambda_assignment > 0:
        blocks = quadratic.reshape(n, k, n, k)
        node_idx = np.arange(n)
        blocks[node_idx, :, node_idx, :] += lambda_assignment
        diag = np.arange(nk)
        quadratic[diag, diag] -= lambda_assignment
        linear -= lambda_assignment
        offset += n * lambda_assignment

    if lambda_balance > 0:
        target = n / k
        for c in range(k):
            idx = np.arange(c, nk, k)
            linear[idx] += lambda_balance * (1.0 - 2.0 * target)
            block = np.ix_(idx, idx)
            quadratic[block] += lambda_balance
            quadratic[idx, idx] -= lambda_balance
            offset += lambda_balance * target * target

    if cut_weight > 0:
        edge_u, edge_v, edge_w = graph.edge_arrays()
        off = edge_u != edge_v
        if off.any():
            communities = np.arange(k)
            iu = (edge_u[off, None] * k + communities).ravel()
            iv = (edge_v[off, None] * k + communities).ravel()
            values = np.repeat(-2.0 * cut_weight * edge_w[off], k)
            quadratic[iu, iv] += values

    coupling = 0.5 * (quadratic + quadratic.T)
    diag = np.diag(coupling).copy()
    np.fill_diagonal(coupling, 0.0)
    return coupling, linear + diag, float(offset)


def frozen_build_sparse(
    graph, k, lambda_assignment, lambda_balance, modularity_weight,
    cut_weight,
):
    """The COO ``_build_sparse`` + ``SparseQuboModel.__init__``.

    Returns ``(coupling, effective_linear, offset, factors)`` where
    ``factors`` is ``None`` or ``(alpha, csr, csc, csr_transposed,
    diagonal)``.
    """
    n = graph.n_nodes
    nk = n * k
    communities = np.arange(k)
    rows, cols, vals = [], [], []
    factor_alpha, factor_beta = [], []
    factor_rows, factor_cols, factor_data = [], [], []
    next_factor_row = 0
    stride_cols = (np.arange(n, dtype=np.int64)[None, :] * k).ravel()
    edge_u, edge_v, edge_w = graph.edge_arrays()
    off = edge_u != edge_v

    two_m = 2.0 * graph.total_weight
    if two_m > 0 and modularity_weight > 0:
        if off.any():
            iu = (edge_u[off, None] * k + communities).ravel()
            iv = (edge_v[off, None] * k + communities).ravel()
            value = np.repeat(
                (-modularity_weight / two_m) * edge_w[off], k
            )
            rows += [iu, iv]
            cols += [iv, iu]
            vals += [value, value]
        loops = ~off
        if loops.any():
            lu = (edge_u[loops, None] * k + communities).ravel()
            lval = np.repeat(
                (-modularity_weight * 2.0 / two_m) * edge_w[loops], k
            )
            rows += [lu]
            cols += [lu]
            vals += [lval]
        factor_rows.append(
            np.repeat(np.arange(k, dtype=np.int64), n) + next_factor_row
        )
        factor_cols.append(
            (stride_cols[None, :] + communities[:, None]).ravel()
        )
        factor_data.append(np.tile(np.asarray(graph.degrees), k))
        factor_alpha.append(
            np.full(k, modularity_weight / (two_m * two_m))
        )
        factor_beta.append(np.zeros(k))
        next_factor_row += k

    if lambda_assignment > 0:
        factor_rows.append(
            np.repeat(np.arange(n, dtype=np.int64), k) + next_factor_row
        )
        factor_cols.append(np.arange(nk, dtype=np.int64))
        factor_data.append(np.ones(nk))
        factor_alpha.append(np.full(n, lambda_assignment))
        factor_beta.append(np.full(n, -1.0))
        next_factor_row += n

    if lambda_balance > 0:
        factor_rows.append(
            np.repeat(np.arange(k, dtype=np.int64), n) + next_factor_row
        )
        factor_cols.append(
            (stride_cols[None, :] + communities[:, None]).ravel()
        )
        factor_data.append(np.ones(nk))
        factor_alpha.append(np.full(k, lambda_balance))
        factor_beta.append(np.full(k, -n / k))
        next_factor_row += k

    if cut_weight > 0 and off.any():
        iu = (edge_u[off, None] * k + communities).ravel()
        iv = (edge_v[off, None] * k + communities).ravel()
        value = np.repeat(-cut_weight * edge_w[off], k)
        rows += [iu, iv]
        cols += [iv, iu]
        vals += [value, value]

    if rows:
        quadratic = sparse.coo_matrix(
            (
                np.concatenate(vals),
                (np.concatenate(rows), np.concatenate(cols)),
            ),
            shape=(nk, nk),
        )
    else:
        quadratic = sparse.coo_matrix((nk, nk), dtype=np.float64)

    # SparseQuboModel.__init__ with linear=None, offset=0.0.
    matrix = sparse.csr_matrix(quadratic, dtype=np.float64)
    coupling = (matrix + matrix.T) * 0.5
    diag = coupling.diagonal().copy()
    coupling = coupling - sparse.diags(diag)
    coupling.eliminate_zeros()
    coupling = coupling.tocsr()
    effective_linear = np.zeros(nk, dtype=np.float64) + diag
    offset = 0.0
    factors = None
    if next_factor_row:
        alpha = np.concatenate(factor_alpha)
        beta = np.concatenate(factor_beta)
        f_mat = sparse.csr_matrix(
            sparse.coo_matrix(
                (
                    np.concatenate(factor_data),
                    (
                        np.concatenate(factor_rows),
                        np.concatenate(factor_cols),
                    ),
                ),
                shape=(next_factor_row, nk),
            ),
            dtype=np.float64,
        )
        squared = f_mat.multiply(f_mat)
        factor_diag = np.asarray(squared.T @ alpha).ravel()
        effective_linear = (
            effective_linear
            + factor_diag
            + np.asarray(f_mat.T @ (2.0 * alpha * beta)).ravel()
        )
        offset += float(np.dot(alpha, beta * beta))
        factors = (alpha, f_mat, f_mat.tocsc(), f_mat.T.tocsr(), factor_diag)
    return coupling, effective_linear, offset, factors


def _lfr(n, seed):
    return lfr_graph(n, mixing=0.2, seed=seed)[0]


def _coarsest(seed=3, n=1000, k=8):
    """The multilevel base graph of a seeded LFR graph (has self-loops)."""
    graph = _lfr(n, seed)
    cfg = MultilevelConfig(threshold=120)
    hierarchy = coarsen_to_threshold(
        graph,
        cfg.threshold,
        alpha=cfg.alpha,
        beta=cfg.beta,
        max_levels=cfg.max_levels,
        max_degree=cfg.degree_limit_factor * 2.0 * graph.total_weight / k,
    )
    return hierarchy.levels[-1].coarse_graph


def _weighted(seed=4, n=30):
    rng = np.random.default_rng(seed)
    edges = [
        (int(u), int(v), float(w))
        for u, v, w in zip(
            rng.integers(0, n, 90),
            rng.integers(0, n, 90),
            rng.uniform(0.1, 3.0, 90),
        )
    ]
    return Graph(n, edges)


GRAPHS = {
    "lfr200": lambda: _lfr(200, 1),
    "coarsest": _coarsest,
    "cliques": lambda: ring_of_cliques(4, 5)[0],
    "weighted": _weighted,
    "edgeless": lambda: Graph(6),
    # Node 5 is isolated: its row of B is exactly zero, so -w1 B holds
    # -0.0 entries, which the raw build stored as +0.0.
    "isolated": lambda: Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4)]),
}

#: ``(graph, k, build_community_qubo overrides)``; ``None`` penalties
#: select :func:`default_penalties`.
CASES = [
    pytest.param("lfr200", 4, {}, id="lfr200-k4"),
    pytest.param("coarsest", 8, {}, id="coarsest-k8"),
    pytest.param("cliques", 4, {}, id="cliques-k4"),
    pytest.param("cliques", 1, {}, id="k1"),
    pytest.param(
        "lfr200", 3, {"lambda_assignment": 0.0}, id="no-assignment"
    ),
    pytest.param("coarsest", 5, {"lambda_balance": 0.0}, id="no-balance"),
    pytest.param(
        "cliques", 3, {"modularity_weight": 0.0}, id="no-modularity"
    ),
    pytest.param(
        "weighted", 4, {"cut_weight": 0.35, "modularity_weight": 0.8},
        id="cut-weighted",
    ),
    pytest.param(
        "coarsest", 2, {"cut_weight": 0.2}, id="cut-coarsest"
    ),
    pytest.param("edgeless", 3, {}, id="edgeless"),
    pytest.param(
        "isolated", 2, {"lambda_balance": 0.0}, id="isolated-node-zeros"
    ),
]


@pytest.fixture(scope="module")
def graphs():
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = GRAPHS[name]()
        return cache[name]

    return get


def _build(graph, k, overrides):
    return build_community_qubo(graph, k, backend="dense", **overrides)


def _frozen(graph, k, overrides, frozen_build=frozen_build_dense):
    auto_a, auto_s = default_penalties(graph, k)
    la = overrides.get("lambda_assignment", auto_a)
    ls = overrides.get("lambda_balance", auto_s)
    return frozen_build(
        graph,
        k,
        float(la),
        float(ls),
        float(overrides.get("modularity_weight", 1.0)),
        float(overrides.get("cut_weight", 0.0)),
    )


class TestCanonicalAssembly:
    @pytest.mark.parametrize("name, k, overrides", CASES)
    def test_byte_identical_to_frozen_path(self, graphs, name, k, overrides):
        graph = graphs(name)
        model = _build(graph, k, overrides).model
        coupling, linear, offset = _frozen(graph, k, overrides)
        assert np.asarray(model.coupling).tobytes() == coupling.tobytes()
        assert np.asarray(model.effective_linear).tobytes() == (
            linear.tobytes()
        )
        assert model.offset == offset

    def test_coarsest_graph_has_self_loops(self, graphs):
        edge_u, edge_v, _ = graphs("coarsest").edge_arrays()
        assert np.any(edge_u == edge_v)

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_non_finite_coefficients_rejected(self, backend):
        """Overflowing weights fail the build, as the generic path did."""
        with np.errstate(over="ignore", invalid="ignore"):
            graph = Graph(3, [(0, 1, 1e308), (1, 2, 1e308)])
            with pytest.raises(QuboError, match="finite"):
                build_community_qubo(
                    graph,
                    2,
                    lambda_assignment=1.0,
                    lambda_balance=0.1,
                    backend=backend,
                )


def _random_sparse_case(seed):
    """A seeded small graph and a build configuration for it.

    ``n`` 1–29 and ``k`` 1–9, with self-loops, zero-weight edges and
    isolated nodes, and every penalty and weight both on and off
    (``None`` penalties select :func:`default_penalties`).
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 30))
    k = int(rng.integers(1, 10))
    n_edges = int(rng.integers(0, 3 * n + 1))
    u = rng.integers(0, n, n_edges)
    v = np.where(rng.random(n_edges) < 0.2, u, rng.integers(0, n, n_edges))
    w = rng.uniform(0.05, 3.0, n_edges)
    w[rng.random(n_edges) < 0.15] = 0.0
    if rng.random() < 0.3:  # isolate the last node
        keep = (u != n - 1) & (v != n - 1)
        u, v, w = u[keep], v[keep], w[keep]
    graph = Graph.from_arrays(n, u, v, w)

    def maybe(low, high, default=0.0):
        draw = rng.random()
        if draw < 0.3:
            return 0.0
        if draw < 0.4:
            return default
        return float(rng.uniform(low, high))

    overrides = {
        "lambda_assignment": maybe(0.1, 3.0, None),
        "lambda_balance": maybe(0.01, 1.0, None),
        "modularity_weight": maybe(0.1, 2.0, 1.0),
        "cut_weight": maybe(0.05, 1.0),
    }
    return graph, k, {
        key: value for key, value in overrides.items() if value is not None
    }


def _assert_csr_equal(got, want):
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)
    assert got.shape == want.shape


def _assert_sparse_build_matches_frozen(graph, k, overrides):
    qubo = build_community_qubo(graph, k, backend="sparse", **overrides)
    model = qubo.model
    assert isinstance(model, SparseQuboModel)
    coupling, linear, offset, factors = _frozen(
        graph, k, overrides, frozen_build_sparse
    )
    _assert_csr_equal(model.coupling, coupling)
    assert np.asarray(model.effective_linear).tobytes() == linear.tobytes()
    assert model.offset == offset
    terms = model.factor_terms()
    assert (terms is None) == (factors is None)
    if factors is not None:
        alpha, f_csr, f_csc, f_csr_t, diagonal = factors
        got_alpha, got_csr, got_csc, got_diagonal = terms
        assert got_alpha.tobytes() == alpha.tobytes()
        _assert_csr_equal(got_csr, f_csr)
        _assert_csr_equal(got_csc, f_csc)
        _assert_csr_equal(model._factor_matrix_t, f_csr_t)
        assert got_diagonal.tobytes() == diagonal.tobytes()
        np.testing.assert_array_equal(
            model.factor_row_layout(),
            _row_progressions(f_csr.indptr, f_csr.indices),
        )
    else:
        assert model.factor_row_layout() is None
    la = overrides.get(
        "lambda_assignment", default_penalties(graph, k)[0]
    )
    expected_blocks = (graph.n_nodes, k) if la > 0 else None
    assert model.one_hot_blocks() == expected_blocks


class TestSparseCanonicalAssembly:
    @pytest.mark.parametrize("name, k, overrides", CASES)
    def test_identical_to_frozen_path(self, graphs, name, k, overrides):
        _assert_sparse_build_matches_frozen(graphs(name), k, overrides)

    def test_random_graphs_identical_to_frozen_path(self):
        cases = [_random_sparse_case(seed) for seed in range(300)]
        for seed, (graph, k, overrides) in enumerate(cases):
            try:
                _assert_sparse_build_matches_frozen(graph, k, overrides)
            except AssertionError as exc:
                raise AssertionError(f"seed {seed}: {exc}") from exc
        # The cases reach every edge case they are drawn to cover.
        edges = [graph.edge_arrays() for graph, _, _ in cases]
        assert any(np.any(u == v) for u, v, _ in edges)
        assert any(np.any(w == 0.0) for _, _, w in edges)
        assert any(np.any(graph.degrees == 0.0) for graph, _, _ in cases)
        for key in ("lambda_assignment", "lambda_balance",
                    "modularity_weight", "cut_weight"):
            values = [overrides.get(key) for _, _, overrides in cases]
            assert 0.0 in values and any(values), key


class TestKroneckerTerms:
    @pytest.mark.parametrize("name, k, overrides", CASES)
    def test_terms_rebuild_the_coupling(self, graphs, name, k, overrides):
        graph = graphs(name)
        model = _build(graph, k, overrides).model
        n_nodes, n_groups, m_block, pair = model.kronecker_terms()
        assert (n_nodes, n_groups) == (graph.n_nodes, k)
        assert m_block.shape == (n_nodes, n_nodes)
        assert not m_block.flags.writeable
        np.testing.assert_array_equal(m_block, m_block.T)
        np.testing.assert_array_equal(np.diag(m_block), 0.0)
        rebuilt = np.kron(m_block, np.eye(k)) + pair * np.kron(
            np.eye(n_nodes), np.ones((k, k)) - np.eye(k)
        )
        np.testing.assert_array_equal(rebuilt, model.coupling)

    def test_pair_constant_is_the_assignment_penalty(self, graphs):
        qubo = _build(graphs("cliques"), 4, {"lambda_assignment": 0.75})
        assert qubo.model.kronecker_terms()[3] == 0.75
        k1 = _build(graphs("cliques"), 1, {}).model.kronecker_terms()
        assert k1[3] == 0.0

    def test_derived_and_generic_models_carry_none(self, graphs):
        model = _build(graphs("cliques"), 3, {}).model
        assert model.to_dense() is model
        derived = [
            QuboModel(np.asarray(model.coupling), model.effective_linear),
            SparseQuboModel.from_dense(model).to_dense(),
        ]
        for other in derived:
            assert other.kronecker_terms() is None

    def test_sparse_backend_has_no_kronecker_accessor(self, graphs):
        qubo = build_community_qubo(graphs("cliques"), 3, backend="sparse")
        assert not hasattr(qubo.model, "kronecker_terms")

    def test_dense_patch_keeps_kronecker_terms(self, graphs):
        graph = graphs("cliques")
        patcher = CommunityQuboPatcher(_build(graph, 3, {}))
        updated, _ = patcher.apply_events([("insert", 0, 7, 1.5)])
        terms = updated.model.kronecker_terms()
        assert terms is not None
        fresh = build_community_qubo(
            updated.graph,
            3,
            lambda_assignment=updated.lambda_assignment,
            lambda_balance=updated.lambda_balance,
            backend="dense",
        )
        np.testing.assert_array_equal(
            terms[2], fresh.model.kronecker_terms()[2]
        )
