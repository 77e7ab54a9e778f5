"""QUBO construction for community detection (paper §III-B, Algorithm 1).

Binary variables ``x[i, c] = 1`` iff node ``i`` is assigned to community
``c``; ``idx(i, c) = i * k + c`` flattens them.  The minimisation objective
assembled here is the paper's Eq. 5:

    Q_total = -Q_M + Q_A + Q_S  (+ optional cut reward, Algorithm 1 line 16)

with

* ``Q_M`` — the modularity reward, Eq. 2: ``(1/2m) Σ_ij B_ij Σ_c x_ic x_jc``
  where ``B = A - d d^T / 2m`` is the modularity matrix (the ``1/2m``
  prefactor is already folded into ``B``'s usage in Eq. 1, so we place
  ``B_ij / (2m)`` on the couplings; maximising Q_M equals maximising
  modularity exactly),
* ``Q_A`` — the one-hot assignment penalty, Eq. 3,
* ``Q_S`` — the community-size balance penalty, Eq. 4,
* the optional cut reward of Algorithm 1 (weight ``w3``) that adds
  ``-2 w3`` on ``(idx(u,c), idx(v,c))`` for every edge ``(u, v)``.

Assembly is fully vectorized and emits one of two backends behind the
shared :class:`repro.qubo.model.BaseQubo` interface:

* ``backend="dense"`` — a :class:`QuboModel` holding the full ``(nk, nk)``
  coupling, written directly in canonical form (symmetric, zero
  diagonal) through its ``(n, k, n, k)`` view: the same ``(n, n)``
  block ``M`` in every community and ``lambda_A`` between a node's
  communities.  The model records that Kronecker form,
  ``S = M ⊗ I_k + lambda_A I_n ⊗ (J_k - I_k)``
  (:meth:`QuboModel.kronecker_terms`), for the QHD engine's
  mean-field fields.  Coefficients are byte-identical to assembling
  the raw per-term matrix and canonicalising it.
* ``backend="sparse"`` — a :class:`SparseQuboModel` whose explicit
  couplings are only the adjacency/cut terms, gathered in canonical CSR
  straight from the graph's CSR, while the modularity null model and
  the Eq. 3/4 penalties are stored as low-rank squared-linear-form
  factors, so nothing O((nk)^2) is ever allocated.
* ``backend="auto"`` (default) — :func:`select_backend` picks dense for
  small instances (``nk <= 2048``) and sparse beyond, unless the
  estimated stored-coefficient density exceeds 25% where sparse storage
  would not pay.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import QuboError
from repro.graphs.graph import Graph
from repro.qubo.model import BaseQubo, QuboModel
from repro.qubo.sparse import SparseQuboModel
from repro.utils.validation import check_integer, check_positive

#: Instances with at most this many variables always use the dense backend
#: (the dense matrix is small enough that sparse bookkeeping costs more).
DENSE_VARIABLE_LIMIT = 2048

#: Above :data:`DENSE_VARIABLE_LIMIT`, the sparse backend is selected
#: unless the estimated stored-coefficient density exceeds this fraction.
DENSE_DENSITY_LIMIT = 0.25


class VariableMap:
    """Bijection between (node, community) pairs and flat QUBO indices.

    Implements Algorithm 1's ``idx(i, c) = i * k + c``.

    Examples
    --------
    >>> vm = VariableMap(n_nodes=3, n_communities=2)
    >>> vm.index(2, 1)
    5
    >>> vm.pair(5)
    (2, 1)
    """

    def __init__(self, n_nodes: int, n_communities: int) -> None:
        self.n_nodes = check_integer(n_nodes, "n_nodes", minimum=1)
        self.n_communities = check_integer(
            n_communities, "n_communities", minimum=1
        )

    @property
    def n_variables(self) -> int:
        """Total flat variable count ``n * k``."""
        return self.n_nodes * self.n_communities

    def index(self, node: int, community: int) -> int:
        """Flat index of variable ``x[node, community]``."""
        if not 0 <= node < self.n_nodes:
            raise QuboError(f"node {node} outside 0..{self.n_nodes - 1}")
        if not 0 <= community < self.n_communities:
            raise QuboError(
                f"community {community} outside 0..{self.n_communities - 1}"
            )
        return node * self.n_communities + community

    def pair(self, index: int) -> tuple[int, int]:
        """Inverse of :meth:`index`."""
        if not 0 <= index < self.n_variables:
            raise QuboError(
                f"index {index} outside 0..{self.n_variables - 1}"
            )
        return divmod(index, self.n_communities)

    def reshape(self, x: np.ndarray) -> np.ndarray:
        """View a flat assignment vector as an ``(n_nodes, k)`` matrix."""
        arr = np.asarray(x)
        if arr.shape != (self.n_variables,):
            raise QuboError(
                f"x must have shape ({self.n_variables},), got {arr.shape}"
            )
        return arr.reshape(self.n_nodes, self.n_communities)


def default_penalties(graph: Graph, n_communities: int) -> tuple[float, float]:
    """Heuristic penalty weights ``(lambda_A, lambda_S)`` for Eq. 3/4.

    The assignment penalty must dominate any modularity gain a single
    violated node could harvest; per-node modularity contributions are
    bounded by ``max_degree / 2m``, so a small multiple of that bound is
    sufficient without drowning the objective.  The balance penalty is kept
    an order of magnitude softer — it expresses a preference, not a hard
    constraint (paper §III-B.1).
    """
    two_m = 2.0 * graph.total_weight
    if two_m <= 0:
        return 1.0, 0.1
    max_degree = float(np.max(graph.degrees)) if graph.n_nodes else 1.0
    lambda_a = 2.0 * max(max_degree / two_m, 1.0 / graph.n_nodes)
    lambda_s = lambda_a / (10.0 * max(1, n_communities))
    return lambda_a, lambda_s


def select_backend(graph: Graph, n_communities: int) -> str:
    """Choose the QUBO storage backend for ``graph`` and ``k`` communities.

    Returns ``"dense"`` when ``n * k <= DENSE_VARIABLE_LIMIT`` (small
    instances where one contiguous matrix wins), or when the estimated
    stored-coefficient count of the sparse representation —
    ``2 |E| k`` adjacency couplings plus ``~3 n k`` factor entries — would
    exceed ``DENSE_DENSITY_LIMIT`` of the full ``(nk)^2`` matrix.
    Otherwise ``"sparse"``.
    """
    nk = graph.n_nodes * n_communities
    if nk <= DENSE_VARIABLE_LIMIT:
        return "dense"
    estimated_nnz = (2 * graph.n_edges + 3 * graph.n_nodes) * n_communities
    if estimated_nnz > DENSE_DENSITY_LIMIT * float(nk) * float(nk):
        return "dense"
    return "sparse"


@dataclass(frozen=True)
class CommunityQubo:
    """A community-detection QUBO plus the metadata needed to decode it."""

    model: BaseQubo
    variable_map: VariableMap
    graph: Graph
    n_communities: int
    lambda_assignment: float
    lambda_balance: float
    modularity_weight: float
    cut_weight: float
    backend: str = "dense"

    def modularity_of(self, x: np.ndarray) -> float:
        """Exact modularity of a (valid one-hot) flat assignment ``x``."""
        from repro.community.modularity import modularity
        from repro.qubo.decode import decode_assignment

        labels = decode_assignment(
            x, self.variable_map, graph=self.graph
        )
        return modularity(self.graph, labels)


def build_community_qubo(
    graph: Graph,
    n_communities: int,
    lambda_assignment: float | None = None,
    lambda_balance: float | None = None,
    modularity_weight: float = 1.0,
    cut_weight: float = 0.0,
    backend: str = "auto",
) -> CommunityQubo:
    """Assemble the paper's community-detection QUBO (Algorithm 1).

    Parameters
    ----------
    graph:
        Input network ``G(V, E)``.
    n_communities:
        Maximum number of communities ``k``.
    lambda_assignment:
        Penalty weight of the exactly-one-community constraint (Eq. 3).
        ``None`` selects :func:`default_penalties`.
    lambda_balance:
        Penalty weight of the community-size balance term (Eq. 4).
        ``None`` selects :func:`default_penalties`.
    modularity_weight:
        Weight ``w1`` on the modularity reward (Eq. 2).
    cut_weight:
        Weight ``w3`` of the optional edge-cut reward (Algorithm 1 line 16);
        0 disables the term, matching the Eq. 5 objective.
    backend:
        ``"dense"``, ``"sparse"`` or ``"auto"`` (default).  ``"auto"``
        applies :func:`select_backend`'s size/density rule; forcing
        ``"dense"`` or ``"sparse"`` overrides it.  Both backends encode
        identical energies; the sparse one stores the modularity null
        model and the Eq. 3/4 penalties as low-rank factors and never
        allocates an O((nk)^2) array.

    Returns
    -------
    :class:`CommunityQubo` whose model is in *minimisation* form; its
    optimum corresponds to the maximum of Eq. 5's objective.

    Notes
    -----
    With a valid one-hot assignment ``x`` encoding labels ``c``, the model
    energy satisfies ``E(x) = -w1 * modularity(G, c) + Q_S(x)``; the
    assignment penalty contributes exactly zero.  This identity is checked
    by the test suite.
    """
    n = graph.n_nodes
    if n == 0:
        raise QuboError("cannot build a QUBO for an empty graph")
    k = check_integer(n_communities, "n_communities", minimum=1)
    check_positive(modularity_weight, "modularity_weight", allow_zero=True)
    check_positive(cut_weight, "cut_weight", allow_zero=True)
    if backend not in ("auto", "dense", "sparse"):
        raise QuboError(
            f"backend must be 'auto', 'dense' or 'sparse', got {backend!r}"
        )
    if lambda_assignment is None or lambda_balance is None:
        auto_a, auto_s = default_penalties(graph, k)
        if lambda_assignment is None:
            lambda_assignment = auto_a
        if lambda_balance is None:
            lambda_balance = auto_s
    lambda_assignment = check_positive(
        lambda_assignment, "lambda_assignment", allow_zero=True
    )
    lambda_balance = check_positive(
        lambda_balance, "lambda_balance", allow_zero=True
    )

    vmap = VariableMap(n, k)
    if backend == "auto":
        backend = select_backend(graph, k)
    build = _build_dense if backend == "dense" else _build_sparse
    model = build(
        graph,
        vmap,
        float(lambda_assignment),
        float(lambda_balance),
        float(modularity_weight),
        float(cut_weight),
    )
    return CommunityQubo(
        model=model,
        variable_map=vmap,
        graph=graph,
        n_communities=k,
        lambda_assignment=float(lambda_assignment),
        lambda_balance=float(lambda_balance),
        modularity_weight=float(modularity_weight),
        cut_weight=float(cut_weight),
        backend=backend,
    )


def _build_dense(
    graph: Graph,
    vmap: VariableMap,
    lambda_assignment: float,
    lambda_balance: float,
    modularity_weight: float,
    cut_weight: float,
) -> QuboModel:
    """Dense Algorithm 1 assembly, written straight into canonical form.

    The coupling is one zeroed ``(nk, nk)`` array filled through its
    ``(n, k, n, k)`` view: the same ``(n, n)`` block ``M`` (modularity
    plus balance) in every community, ``lambda_A`` on each node's
    ``(k, k)`` block, a zero diagonal.  The raw diagonal is replayed
    term by term and folded into the linear vector.  Every coefficient
    is byte-identical to assembling the raw Algorithm 1 matrix and
    canonicalising it through ``QuboModel(quadratic, linear, offset)``,
    without that path's two ``(nk, nk)`` temporaries.  The model records
    its :meth:`~repro.qubo.QuboModel.kronecker_terms` and, when
    ``lambda_assignment > 0``, its
    :meth:`~repro.qubo.BaseQubo.one_hot_blocks`.
    """
    n, k = vmap.n_nodes, vmap.n_communities
    nk = vmap.n_variables
    coupling = np.zeros((nk, nk), dtype=np.float64)
    blocks = coupling.reshape(n, k, n, k)
    linear = np.zeros(nk, dtype=np.float64)
    # The raw Q diagonal, accumulated in the order the per-term writes
    # of the raw matrix produce it; it folds into the linear term.
    diagonal = np.zeros((n, k), dtype=np.float64)
    offset = 0.0

    # --- Same-community block: -w1 B / 2m (Eq. 2) + lambda_S (Eq. 4) ---
    # Variable (i, c) couples to (j, c) only; i == j is the diagonal.
    block: np.ndarray | None = None
    two_m = 2.0 * graph.total_weight
    if two_m > 0 and modularity_weight > 0:
        b_matrix = graph.modularity_matrix() / two_m
        block = -modularity_weight * b_matrix
        diagonal += np.diag(block)[:, None]

    # --- Assignment constraint (Eq. 3): lambda_A * (1 - sum_c x_ic)^2 ---
    # Expansion with x^2 = x:
    #   1 - sum_c x_ic + 2 sum_{c<c'} x_ic x_ic'
    # so lambda_A sits on both ordered pairs (i c, i c'), c != c'.
    if lambda_assignment > 0:
        node_idx = np.arange(n)
        blocks[node_idx, :, node_idx, :] = lambda_assignment
        # The raw diagonal takes +lambda then -lambda per term: not a
        # no-op in floating point, so it is replayed.
        diagonal += lambda_assignment
        diagonal -= lambda_assignment
        linear -= lambda_assignment
        offset += n * lambda_assignment

    # --- Balance constraint (Eq. 4): lambda_S * (sum_i x_ic - n/k)^2 ----
    if lambda_balance > 0:
        target = n / k
        linear += lambda_balance * (1.0 - 2.0 * target)
        if block is None:
            block = np.full((n, n), lambda_balance)
        else:
            block = block + lambda_balance
        diagonal += lambda_balance
        diagonal -= lambda_balance
        for _ in range(k):  # one term per community, in the raw order
            offset += lambda_balance * target * target

    if block is not None:
        # Added onto zeros, not assigned, so a -0.0 entry of B lands as
        # +0.0 exactly as in the raw build.
        for c in range(k):
            blocks[:, c, :, c] += block
    diagonal = diagonal.reshape(nk)
    coupling.reshape(-1)[:: nk + 1] = 0.0

    # --- Optional cut reward (Algorithm 1, line 16) ----------------------
    # -2 w3 w_uv on the upper entry (u c, v c) alone, symmetrised on
    # just those entries to 0.5 * (q_uv + q_vu).
    if cut_weight > 0:
        edge_u, edge_v, edge_w = graph.edge_arrays()
        off = edge_u != edge_v
        if off.any():
            communities = np.arange(k)
            iu = (edge_u[off, None] * k + communities).ravel()
            iv = (edge_v[off, None] * k + communities).ravel()
            values = np.repeat(-2.0 * cut_weight * edge_w[off], k)
            # Canonical edges have u < v, so iu < iv and all pairs are
            # distinct: plain fancy-index writes suffice.
            base = coupling[iu, iv]
            symmetrised = 0.5 * ((base + values) + base)
            coupling[iu, iv] = symmetrised
            coupling[iv, iu] = symmetrised

    effective_linear = linear + diagonal
    m_block = blocks[:, 0, :, 0].copy()
    m_block.flags.writeable = False
    pair = float(coupling[0, 1]) if k > 1 else 0.0
    # Every coupling entry is an entry of M, the pair constant or zero.
    if not (
        np.all(np.isfinite(m_block))
        and np.isfinite(pair)
        and np.all(np.isfinite(effective_linear))
        and np.isfinite(offset)
    ):
        raise QuboError("community QUBO coefficients must be finite")
    model = QuboModel._canonical(
        coupling, effective_linear, offset, kronecker=(n, k, m_block, pair)
    )
    if lambda_assignment > 0:
        model._one_hot_blocks = (n, k)
    return model


def _build_sparse(
    graph: Graph,
    vmap: VariableMap,
    lambda_assignment: float,
    lambda_balance: float,
    modularity_weight: float,
    cut_weight: float,
) -> SparseQuboModel:
    """Sparse Algorithm 1 assembly, written straight into canonical CSR.

    The explicit coupling is the graph adjacency expanded by ``k``: row
    ``i*k + c`` couples to ``j*k + c`` for every neighbour ``j != i``
    with ``-w1 w_ij / 2m - w3 w_ij`` (active terms only), gathered from
    the graph's sorted CSR rows, so it needs no sort and no
    symmetrisation pass.  Exact zeros are dropped, and each self-loop's
    ``-2 w1 w_ii / 2m`` (the doubled multigraph convention) folds into
    the linear term.  The modularity null model ``+w1 d d^T / (2m)^2``
    (per community), the assignment penalty (per node) and the balance
    penalty (per community) are squared linear forms, written as factor
    rows with ascending columns, so memory stays linear in the instance
    instead of quadratic.  Every array is bit-identical to assembling
    COO triplets and canonicalising them through
    ``SparseQuboModel(quadratic, factors=...)``.  When
    ``lambda_assignment > 0`` the model records its
    :meth:`~repro.qubo.BaseQubo.one_hot_blocks`.
    """
    from scipy import sparse

    n, k = vmap.n_nodes, vmap.n_communities
    nk = vmap.n_variables
    communities = np.arange(k, dtype=np.int64)
    two_m = 2.0 * graph.total_weight
    modularity = two_m > 0 and modularity_weight > 0

    # --- Coupling: the graph CSR expanded by k --------------------------
    g_indptr, g_indices, g_weights = graph.csr()
    row_of = np.repeat(np.arange(n, dtype=np.int64), np.diff(g_indptr))
    loops = g_indices == row_of
    if modularity:
        vals = (-modularity_weight / two_m) * g_weights
    else:
        vals = np.zeros_like(g_weights)
    if cut_weight > 0:
        vals = vals + -cut_weight * g_weights
    keep = ~loops & (vals != 0.0)
    kcum = np.zeros(keep.size + 1, dtype=np.int64)
    np.cumsum(keep, out=kcum[1:])
    kept_start = kcum[g_indptr[:-1]]
    kept_per_node = kcum[g_indptr[1:]] - kept_start
    kept_cols = np.asarray(g_indices[keep], dtype=np.int64)
    kept_vals = vals[keep]
    counts = np.repeat(kept_per_node, k)
    indptr = np.zeros(nk + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    row_ids = np.repeat(np.arange(nk, dtype=np.int64), counts)
    node = row_ids // k
    comm = row_ids - node * k
    gather = kept_start[node] + (
        np.arange(int(indptr[-1]), dtype=np.int64) - indptr[row_ids]
    )
    coupling = sparse.csr_matrix(
        (kept_vals[gather], kept_cols[gather] * k + comm, indptr),
        shape=(nk, nk),
    )

    linear = np.zeros(nk, dtype=np.float64)
    if modularity and loops.any():
        positions = (row_of[loops, None] * k + communities).ravel()
        linear[positions] = np.repeat(
            (-modularity_weight * 2.0 / two_m) * g_weights[loops], k
        )

    # --- Factor rows, in the order null model, assignment, balance ------
    # Rows over one community's variables i*k + c, for c = 0..k-1.
    community_cols = (
        np.arange(n, dtype=np.int64)[None, :] * k + communities[:, None]
    ).ravel()
    row_sizes: list[np.ndarray] = []
    factor_cols: list[np.ndarray] = []
    factor_data: list[np.ndarray] = []
    alphas: list[np.ndarray] = []
    betas: list[np.ndarray] = []
    if modularity:
        # +w1 (d . x_c)^2 / (2m)^2 per community c.
        row_sizes.append(np.full(k, n))
        factor_cols.append(community_cols)
        factor_data.append(np.tile(np.asarray(graph.degrees), k))
        alphas.append(np.full(k, modularity_weight / (two_m * two_m)))
        betas.append(np.zeros(k))
    if lambda_assignment > 0:
        # lambda_A (sum_c x_ic - 1)^2 per node.
        row_sizes.append(np.full(n, k))
        factor_cols.append(np.arange(nk, dtype=np.int64))
        factor_data.append(np.ones(nk))
        alphas.append(np.full(n, lambda_assignment))
        betas.append(np.full(n, -1.0))
    if lambda_balance > 0:
        # lambda_S (sum_i x_ic - n/k)^2 per community.
        row_sizes.append(np.full(k, n))
        factor_cols.append(community_cols)
        factor_data.append(np.ones(nk))
        alphas.append(np.full(k, lambda_balance))
        betas.append(np.full(k, -n / k))

    factors = None
    if row_sizes:
        sizes = np.concatenate(row_sizes)
        factor_indptr = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=factor_indptr[1:])
        factor_matrix = sparse.csr_matrix(
            (
                np.concatenate(factor_data),
                np.concatenate(factor_cols),
                factor_indptr,
            ),
            shape=(sizes.size, nk),
        )
        factors = (
            np.concatenate(alphas), factor_matrix, np.concatenate(betas)
        )

    model = SparseQuboModel._canonical(coupling, linear, 0.0, factors)
    checked = [coupling.data, model.effective_linear, model.offset]
    if factors is not None:
        checked += [factors[0], factors[1].data]
    if not all(np.all(np.isfinite(values)) for values in checked):
        raise QuboError("community QUBO coefficients must be finite")
    if lambda_assignment > 0:
        model._one_hot_blocks = (n, k)
    return model
