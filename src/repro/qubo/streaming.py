"""Incremental community-QUBO patches for streaming graph updates.

Static detection builds one QUBO per graph
(:func:`repro.qubo.builders.build_community_qubo`).  Under a stream of
edge events the graph changes a little per batch, but a naive pipeline
rebuilds everything: re-derived penalties, fresh COO assembly, a fresh
model canonicalisation and a cold flip-delta state.
:class:`CommunityQuboPatcher` replaces that with coefficient *patches*:

* penalties are **pinned** at the first build — re-deriving
  :func:`repro.qubo.builders.default_penalties` from every intermediate
  graph would silently change the objective mid-stream;
* the sparse backend's explicit couplings are re-expanded directly from
  the new graph's CSR by a pure vectorized gather (no COO sort, no
  symmetrisation pass — the graph CSR is already canonical), and the
  low-rank factors are patched in place: the modularity null rows get
  the touched nodes' new degrees, the null coefficients the new
  ``w1 / (2m)^2``, and everything re-folds through
  :meth:`repro.qubo.SparseQuboModel.patch` without re-running model
  canonicalisation;
* every array is produced by the *same floating-point expressions* the
  builder and model constructor use, so the patched model is bit-exact
  versus a from-scratch ``build_community_qubo`` call with the same
  pinned penalties (the equivalence property the streaming test
  harness pins).

Cost per event batch: any edge event changes the total weight ``2m``,
which rescales **all** modularity couplings and the null-model
projections, so O(|E| k + n k) value work per batch is information-
theoretically required — the savings over a rebuild are the skipped
COO sorts, the skipped symmetrisation/folding passes and the reuse of
the factor sparsity structure.  For the same reason the matching
flip-delta refresh, :meth:`FlipDeltaState.repatch`, re-materialises
every maintained field: each depends on ``2m`` and on the degree
projections.

The dense backend has no incremental structure to exploit — the null
model densifies every community block — so its "patch" is the dense
builder's canonical assembly with the pinned penalties: the fresh
model, Kronecker terms included
(:meth:`repro.qubo.QuboModel.kronecker_terms`), bit-exact versus a
rebuild by construction.  It exists so both backends satisfy the same
equivalence contract.
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as np
from scipy import sparse

from repro.exceptions import QuboError
from repro.graphs.graph import Graph
from repro.qubo.builders import (
    CommunityQubo,
    _build_dense,
    _build_sparse,
)
from repro.qubo.model import BaseQubo, QuboModel
from repro.qubo.sparse import SparseQuboModel

__all__ = ["CommunityQuboPatcher"]


class CommunityQuboPatcher:
    """Applies edge-event batches to a community QUBO as patches.

    Parameters
    ----------
    qubo:
        The initial :class:`repro.qubo.builders.CommunityQubo`.  Its
        penalty weights, modularity/cut weights, community count and
        backend are pinned for the lifetime of the patcher.

    Examples
    --------
    >>> from repro.graphs import Graph
    >>> from repro.qubo import CommunityQuboPatcher, build_community_qubo
    >>> graph = Graph(4, [(0, 1), (1, 2), (2, 3)])
    >>> patcher = CommunityQuboPatcher(build_community_qubo(graph, 2))
    >>> updated, touched = patcher.apply_events([("insert", 0, 3, 1.0)])
    >>> updated.graph.has_edge(0, 3)
    True
    >>> sorted(touched.tolist())
    [0, 3]
    """

    def __init__(self, qubo: CommunityQubo) -> None:
        if not isinstance(qubo, CommunityQubo):
            raise QuboError(
                f"qubo must be a CommunityQubo, got {type(qubo).__name__}"
            )
        self._current = qubo
        self._n = qubo.graph.n_nodes
        self._k = int(qubo.n_communities)
        self._w1 = float(qubo.modularity_weight)
        self._w3 = float(qubo.cut_weight)
        self._la = float(qubo.lambda_assignment)
        self._ls = float(qubo.lambda_balance)
        self._backend = qubo.backend
        self._vmap = qubo.variable_map
        self._mod_active = (
            2.0 * qubo.graph.total_weight > 0 and self._w1 > 0
        )
        self._beta = self._pinned_beta()
        # Scratch factor matrices (created lazily): the factor sparsity
        # is pinned between modularity-guard flips, so the per-batch
        # refold reuses two csr/csc pairs sharing one data buffer each
        # instead of reconstructing scipy matrices every batch.
        self._scratch_f: Any = None
        self._scratch_ft: Any = None
        self._scratch_sq: Any = None
        self._scratch_sqt: Any = None
        if self._backend not in ("dense", "sparse"):
            raise QuboError(
                f"qubo.backend must be 'dense' or 'sparse', "
                f"got {self._backend!r}"
            )
        if self._backend == "sparse":
            model = qubo.model
            if not isinstance(model, SparseQuboModel):
                raise QuboError(
                    "a sparse-backend CommunityQubo must hold a "
                    "SparseQuboModel"
                )
            if self._mod_active:
                f_mat = model._factor_matrix
                if f_mat is None or np.any(
                    np.diff(f_mat.indptr[: self._k + 1]) != self._n
                ):
                    raise QuboError(
                        "unrecognised factor layout: expected k dense "
                        "modularity null rows first"
                    )
        elif not isinstance(qubo.model, QuboModel):
            raise QuboError(
                "a dense-backend CommunityQubo must hold a QuboModel"
            )

    # ------------------------------------------------------------------
    # Read access
    # ------------------------------------------------------------------
    @property
    def qubo(self) -> CommunityQubo:
        """The current (most recently patched) community QUBO."""
        return self._current

    @property
    def n_communities(self) -> int:
        """Pinned community count ``k``."""
        return self._k

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def apply_events(
        self, edge_events: Iterable[Any]
    ) -> tuple[CommunityQubo, np.ndarray]:
        """Apply one edge-event batch; returns ``(qubo, touched_nodes)``.

        Convenience composition of
        :meth:`repro.graphs.Graph.apply_updates` on the current graph
        and :meth:`update` on its result.
        """
        graph, touched = self._current.graph.apply_updates(edge_events)
        return self.update(graph, touched), touched

    def update(
        self, graph: Graph, touched_nodes: np.ndarray | None = None
    ) -> CommunityQubo:
        """Patch the model onto ``graph`` (same node set, new edges).

        ``touched_nodes`` restricts the factor-column rewrites to the
        nodes whose incident edges changed (``None`` treats every node
        as touched).  Returns the new :class:`CommunityQubo`, which
        also becomes :attr:`qubo`.
        """
        if graph.n_nodes != self._n:
            raise QuboError(
                f"patched graph must keep {self._n} nodes, "
                f"got {graph.n_nodes}"
            )
        if touched_nodes is None:
            touched = np.arange(self._n, dtype=np.int64)
        else:
            touched = np.unique(np.asarray(touched_nodes, dtype=np.int64))
            if touched.size and (
                touched[0] < 0 or touched[-1] >= self._n
            ):
                raise QuboError(
                    f"touched_nodes must lie in 0..{self._n - 1}"
                )
        if self._backend == "dense":
            updated = self._patch_dense(graph)
        else:
            updated = self._patch_sparse(graph, touched)
        self._current = updated
        return updated

    # ------------------------------------------------------------------
    # Backend-specific assembly
    # ------------------------------------------------------------------
    def _wrap(self, model: BaseQubo, graph: Graph) -> CommunityQubo:
        """A :class:`CommunityQubo` around ``model`` with pinned params."""
        return CommunityQubo(
            model=model,
            variable_map=self._vmap,
            graph=graph,
            n_communities=self._k,
            lambda_assignment=self._la,
            lambda_balance=self._ls,
            modularity_weight=self._w1,
            cut_weight=self._w3,
            backend=self._backend,
        )

    def _patch_dense(self, graph: Graph) -> CommunityQubo:
        """Dense patch: the canonical assembly with pinned penalties."""
        model = _build_dense(
            graph, self._vmap, self._la, self._ls, self._w1, self._w3
        )
        return self._wrap(model, graph)

    def _patch_sparse(
        self, graph: Graph, touched: np.ndarray
    ) -> CommunityQubo:
        """Sparse patch: gathered couplings plus factor-column rewrites."""
        old = self._current.model
        if not isinstance(old, SparseQuboModel):
            raise QuboError("sparse patching requires a SparseQuboModel")
        two_m = 2.0 * graph.total_weight
        mod_active = two_m > 0 and self._w1 > 0
        if mod_active != self._mod_active:
            # The modularity guard flipped (total weight crossed zero):
            # the factor sparsity itself changes, so there is no
            # structure to splice into — one full assembly, after which
            # patching resumes against the new layout.
            self._mod_active = mod_active
            self._beta = self._pinned_beta()
            self._scratch_f = None
            self._scratch_ft = None
            self._scratch_sq = None
            self._scratch_sqt = None
            model = _build_sparse(
                graph, self._vmap, self._la, self._ls, self._w1, self._w3
            )
            return self._wrap(model, graph)
        nk = self._n * self._k
        coupling = self._expanded_coupling(graph, two_m, mod_active)
        linear = (
            np.zeros(nk, dtype=np.float64)
            + self._loop_diagonal(graph, two_m, mod_active)
        )
        offset = 0.0
        f_mat = old._factor_matrix
        if f_mat is None:
            model = old.patch(
                coupling=coupling,
                effective_linear=linear,
                offset=offset,
            )
            return self._wrap(model, graph)
        alpha = old._factor_coefficients
        if alpha is None or self._beta is None:  # pragma: no cover
            raise QuboError("factor matrix without coefficients")
        new_fdata = np.asarray(f_mat.data, dtype=np.float64).copy()
        new_alpha = alpha.copy()
        if mod_active:
            k = self._k
            if touched.size:
                # Null row c stores node i's degree at indptr[c] + i
                # (the rows are dense over nodes, explicit zeros kept),
                # so only the touched columns are rewritten.
                starts = np.asarray(f_mat.indptr[:k], dtype=np.int64)
                positions = (starts[:, None] + touched[None, :]).ravel()
                new_fdata[positions] = np.tile(
                    np.asarray(graph.degrees)[touched], k
                )
            new_alpha[:k] = np.full(k, self._w1 / (two_m * two_m))
        # Re-fold the factor diagonal/linear parts with the *same*
        # expressions the model constructor uses, so the folded values
        # match a rebuild bit for bit.  The factor sparsity is pinned
        # between guard flips, so the scipy matrices are scratch
        # objects whose shared data buffers are overwritten per batch
        # (entry values and accumulation order match a fresh
        # ``multiply``/transpose exactly).
        if self._scratch_f is None:
            self._scratch_f = sparse.csr_matrix(
                (new_fdata.copy(), f_mat.indices, f_mat.indptr),
                shape=f_mat.shape,
            )
            self._scratch_ft = self._scratch_f.transpose(copy=False)
            self._scratch_sq = sparse.csr_matrix(
                (new_fdata * new_fdata, f_mat.indices, f_mat.indptr),
                shape=f_mat.shape,
            )
            self._scratch_sqt = self._scratch_sq.transpose(copy=False)
        else:
            self._scratch_f.data[:] = new_fdata
            np.multiply(
                new_fdata, new_fdata, out=self._scratch_sq.data
            )
        factor_diag = np.asarray(self._scratch_sqt @ new_alpha).ravel()
        linear = (
            linear
            + factor_diag
            + np.asarray(
                self._scratch_ft @ (2.0 * new_alpha * self._beta)
            ).ravel()
        )
        offset += float(np.dot(new_alpha, self._beta * self._beta))
        model = old.patch(
            coupling=coupling,
            effective_linear=linear,
            offset=offset,
            factor_data=new_fdata,
            factor_coefficients=new_alpha,
            factor_diagonal=factor_diag,
        )
        return self._wrap(model, graph)

    # ------------------------------------------------------------------
    # Sparse array assembly
    # ------------------------------------------------------------------
    def _pinned_beta(self) -> np.ndarray | None:
        """Factor constants in builder layout (null, assignment, balance)."""
        n, k = self._n, self._k
        parts: list[np.ndarray] = []
        if self._mod_active:
            parts.append(np.zeros(k))
        if self._la > 0:
            parts.append(np.full(n, -1.0))
        if self._ls > 0:
            parts.append(np.full(k, -n / k))
        if not parts:
            return None
        return np.concatenate(parts)

    def _expanded_coupling(
        self, graph: Graph, two_m: float, mod_active: bool
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Canonical coupling CSR arrays, gathered from the graph CSR.

        The coupling of the community QUBO is the graph adjacency
        expanded by ``k``: row ``i*k + c`` couples to ``j*k + c`` for
        every non-loop neighbour ``j`` with value
        ``-w1 w_ij / 2m - w3 w_ij`` (active terms only), exact-zero
        values dropped exactly like the constructor's
        ``eliminate_zeros``.  The graph CSR rows are already sorted, so
        the expansion is a pure gather — no COO sort, no
        symmetrisation pass.
        """
        n, k = self._n, self._k
        nk = n * k
        g_indptr, g_indices, g_weights = graph.csr()
        row_of = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(g_indptr)
        )
        vals: np.ndarray | None = None
        if mod_active:
            vals = (-self._w1 / two_m) * g_weights
        if self._w3 > 0:
            cut = -self._w3 * g_weights
            vals = cut if vals is None else vals + cut
        if vals is None:
            vals = np.zeros_like(g_weights)
        keep = (g_indices != row_of) & (vals != 0.0)
        kcum = np.zeros(keep.size + 1, dtype=np.int64)
        np.cumsum(keep, out=kcum[1:])
        kept_per_node = kcum[g_indptr[1:]] - kcum[g_indptr[:-1]]
        kept_start = kcum[g_indptr[:-1]]
        kept_cols = np.asarray(g_indices[keep], dtype=np.int64)
        kept_vals = vals[keep]
        counts = np.repeat(kept_per_node, k)
        indptr = np.zeros(nk + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        total = int(indptr[-1])
        row_ids = np.repeat(np.arange(nk, dtype=np.int64), counts)
        within = np.arange(total, dtype=np.int64) - indptr[row_ids]
        node = row_ids // k
        comm = row_ids - node * k
        gather = kept_start[node] + within
        indices = kept_cols[gather] * k + comm
        data = kept_vals[gather]
        return data, indices, indptr

    def _loop_diagonal(
        self, graph: Graph, two_m: float, mod_active: bool
    ) -> np.ndarray:
        """Self-loop modularity diagonal (folds into the linear term)."""
        nk = self._n * self._k
        diag = np.zeros(nk, dtype=np.float64)
        if not mod_active:
            return diag
        edge_u, edge_v, edge_w = graph.edge_arrays()
        loops = edge_u == edge_v
        if loops.any():
            k = self._k
            positions = (
                edge_u[loops, None] * k + np.arange(k, dtype=np.int64)
            ).ravel()
            diag[positions] = np.repeat(
                (-self._w1 * 2.0 / two_m) * edge_w[loops], k
            )
        return diag

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CommunityQuboPatcher(n_nodes={self._n}, "
            f"n_communities={self._k}, backend={self._backend!r})"
        )
