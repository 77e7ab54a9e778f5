"""A compact weighted undirected graph with CSR adjacency.

The library's algorithms (modularity, QUBO construction, coarsening,
refinement) all operate on dense node indices ``0..n-1`` and need fast
neighbour iteration and weighted degrees.  :class:`Graph` stores a symmetric
CSR adjacency built once at construction; instances are immutable, so derived
quantities (degrees, total edge weight) are computed eagerly and shared
freely.

Construction is array-native end to end: edge lists are converted to
parallel numpy arrays once and every canonicalisation step (bounds checks,
``u <= v`` ordering, duplicate merging, CSR assembly) is a vectorized
operation — there is no per-edge Python loop anywhere on the build path.
CSR neighbour slices are sorted ascending, so point queries
(:meth:`has_edge` / :meth:`edge_weight`) are binary searches.

Self-loops are supported because graph coarsening creates them: an intra-
super-node edge becomes a self-loop whose weight is counted *twice* in the
weighted degree, matching the convention used by modularity (each self-loop
contributes ``2w`` to ``2m``).
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro.exceptions import GraphError


#: Edge-event op -> internal code, in intra-batch application order.
_EVENT_OPS: dict[str, int] = {"delete": 0, "reweight": 1, "insert": 2}

#: Numbers an edge or edge event may carry; ``bool`` is rejected on its own.
_REAL_TYPES = (int, float, np.integer, np.floating)


def _event_node(value: Any, event: Any) -> int:
    """An edge event's endpoint as a node id: an integer or integral float.

    ``bool``, strings and fractional numbers raise :class:`GraphError`
    rather than being coerced to a node.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise GraphError(
        f"edge event {event!r} has a non-integer endpoint {value!r}"
    )


def _check_edge_entries(edges: list[Any]) -> None:
    """Reject a bool, string or other non-number in an edge list.

    One pass collects the entry types at C speed; only a failure walks
    the edges again, to name the first offending entry.
    """
    try:
        kinds = set(map(type, itertools.chain.from_iterable(edges)))
    except TypeError:
        raise GraphError("edges must be (u, v) or (u, v, w) tuples") from None
    bad = {k for k in kinds if k is bool or not issubclass(k, _REAL_TYPES)}
    if bad:
        edge, pos, value = next(
            (edge, pos, value)
            for edge in edges
            for pos, value in enumerate(edge)
            if type(value) in bad
        )
        what = "non-integer node id" if pos < 2 else "non-numeric weight"
        raise GraphError(f"edge {edge!r} has a {what} {value!r}")


def _check_n_nodes(n_nodes: int) -> int:
    if isinstance(n_nodes, bool) or not isinstance(n_nodes, (int, np.integer)):
        raise GraphError(f"n_nodes must be an integer, got {n_nodes!r}")
    if n_nodes < 0:
        raise GraphError(f"n_nodes must be >= 0, got {n_nodes}")
    return int(n_nodes)


def _node_ids(
    u_col: np.ndarray, v_col: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint columns as int64 node ids; a fractional id raises.

    One vectorised comparison of each converted column against its
    source, so an id such as ``1.5`` is rejected instead of truncated
    (and a NaN or infinite one, whose cast is undefined, likewise).
    """
    with np.errstate(invalid="ignore"):
        u_arr = u_col.astype(np.int64, copy=False)
        v_arr = v_col.astype(np.int64, copy=False)
    fractional = (u_arr != u_col) | (v_arr != v_col)
    if fractional.any():
        bad = int(np.flatnonzero(fractional)[0])
        raise GraphError(
            f"edge ({u_col[bad]:g}, {v_col[bad]:g}) has a non-integer "
            "node id"
        )
    return u_arr, v_arr


def _edge_columns(
    edges: Iterable[Sequence[float]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge tuples or an ``(m, 2|3)`` array as ``(u, v, w)`` columns.

    A list must hold numbers only (bools and strings raise) and becomes
    one float64 array in a single conversion.  Missing weights are 1.0.
    """
    if isinstance(edges, np.ndarray):
        arr = edges
    else:
        edges = list(edges)
        _check_edge_entries(edges)
        try:
            arr = np.asarray(edges, dtype=np.float64)
        except (ValueError, TypeError):
            # Ragged input (mixed 2- and 3-tuples): pad to (u, v, w).
            arr = np.asarray(
                [
                    (*item, 1.0) if len(item) == 2 else tuple(item)
                    for item in edges
                    if len(item) in (2, 3)
                ],
                dtype=np.float64,
            )
            if len(arr) != len(edges):
                bad = next(e for e in edges if len(e) not in (2, 3))
                raise GraphError(
                    f"edges must be (u, v) or (u, v, w), got {bad!r}"
                ) from None
    if arr.size == 0:
        arr = np.empty((0, 2))
    elif arr.ndim != 2 or arr.shape[1] not in (2, 3):
        if isinstance(edges, np.ndarray):
            raise GraphError(
                f"edges array must have shape (m, 2) or (m, 3), "
                f"got {arr.shape}"
            )
        raise GraphError(
            f"edges must be (u, v) or (u, v, w), got {edges[0]!r}"
        )
    if arr.shape[1] == 3:
        return arr[:, 0], arr[:, 1], arr[:, 2]
    return arr[:, 0], arr[:, 1], np.ones(len(arr), dtype=np.float64)


def _readonly_triple(
    a: np.ndarray, b: np.ndarray, c: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only views of three arrays, as a statically-typed triple."""
    views: list[np.ndarray] = []
    for arr in (a, b, c):
        view = arr.view()
        view.flags.writeable = False
        views.append(view)
    return views[0], views[1], views[2]


def _check_edges(
    what: str,
    n: int,
    u_arr: np.ndarray,
    v_arr: np.ndarray,
    w_arr: np.ndarray,
    weighted: np.ndarray | bool = True,
) -> None:
    """Raise :class:`GraphError` naming the first bad edge.

    In order: an endpoint outside ``0..n-1``, then — among the
    ``weighted`` entries — a non-finite weight, then a negative one.
    """
    checks = (
        (
            (u_arr < 0) | (u_arr >= n) | (v_arr < 0) | (v_arr >= n),
            "references a node outside 0..{last}",
        ),
        (~np.isfinite(w_arr) & weighted, "has non-finite weight {w}"),
        (
            (w_arr < 0) & weighted,
            "has negative weight {w}; only non-negative weights are "
            "supported",
        ),
    )
    for mask, problem in checks:
        if mask.any():
            bad = int(np.flatnonzero(mask)[0])
            raise GraphError(
                f"{what} ({int(u_arr[bad])}, {int(v_arr[bad])}) "
                + problem.format(last=n - 1, w=float(w_arr[bad]))
            )


def _canonicalize_edge_arrays(
    n: int,
    u_arr: np.ndarray,
    v_arr: np.ndarray,
    w_arr: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate and canonicalise parallel edge arrays (fully vectorized).

    Returns ``(u, v, w)`` with ``u <= v`` per edge, duplicate ``(u, v)``
    pairs merged by weight summation, and edges sorted by ``(u, v)``.
    """
    _check_edges("edge", n, u_arr, v_arr, w_arr)
    lo = np.minimum(u_arr, v_arr)
    hi = np.maximum(u_arr, v_arr)

    # Merge duplicate (u, v) pairs by summing weights.
    keys = lo * n + hi
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    lo, hi, w_arr = lo[order], hi[order], w_arr[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    merged_w = np.add.reduceat(w_arr, starts)
    return lo[starts], hi[starts], merged_w


class Graph:
    """Immutable weighted undirected graph on nodes ``0..n_nodes-1``.

    Parameters
    ----------
    n_nodes:
        Number of nodes.  Isolated nodes are allowed.
    edges:
        Iterable of ``(u, v)`` or ``(u, v, weight)`` tuples, or an
        ``(m, 2)`` / ``(m, 3)`` array.  Duplicate ``(u, v)`` pairs are
        merged by summing weights; ``(v, u)`` is the same edge as
        ``(u, v)``.  ``u == v`` creates a self-loop.

    Examples
    --------
    >>> g = Graph(3, [(0, 1), (1, 2, 2.0)])
    >>> g.n_edges
    2
    >>> g.degree(1)
    3.0
    >>> sorted(int(nb) for nb in g.neighbors(1))
    [0, 2]
    """

    __slots__ = (
        "_n",
        "_edge_u",
        "_edge_v",
        "_edge_w",
        "_indptr",
        "_indices",
        "_weights",
        "_degrees",
        "_total_weight",
    )

    def __init__(
        self,
        n_nodes: int,
        edges: Iterable[Sequence[float]] = (),
    ) -> None:
        self._n = _check_n_nodes(n_nodes)
        self._assemble(*_edge_columns(edges))

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _assemble(
        self, u_col: np.ndarray, v_col: np.ndarray, w_col: np.ndarray
    ) -> None:
        """Canonicalise edge columns and build the CSR (both constructors).

        Columns of bool, string or other non-number dtype raise before
        any cast could coerce them.  Validation and merging are pure
        vectorized array operations (see
        :func:`_canonicalize_edge_arrays`).
        """
        for col in (u_col, v_col, w_col):
            if col.dtype.kind not in "iuf":
                raise GraphError(
                    "edge arrays must have an integer or float dtype, "
                    f"got {col.dtype}"
                )
        u_arr, v_arr = _node_ids(u_col, v_col)
        self._edge_u, self._edge_v, self._edge_w = _canonicalize_edge_arrays(
            self._n, u_arr, v_arr, w_col.astype(np.float64, copy=False)
        )
        self._build_csr()

    def _build_csr(self) -> None:
        """Build the symmetric CSR adjacency (rows sorted) and degrees."""
        n = self._n
        u, v, w = self._edge_u, self._edge_v, self._edge_w
        loop_mask = u == v
        nu = np.concatenate([u, v[~loop_mask]])
        nv = np.concatenate([v, u[~loop_mask]])
        nw = np.concatenate([w, w[~loop_mask]])

        counts = np.bincount(nu, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        # Sorting by the directed key row * n + column leaves every CSR
        # row sorted ascending, which is what makes has_edge/edge_weight
        # binary searches.  Canonical edges make every key distinct, so
        # any sort gives the same permutation.
        order = np.argsort(nu * n + nv)
        self._indptr = indptr
        self._indices = nv[order]
        self._weights = nw[order]

        # Weighted degree: self-loops count twice (modularity convention).
        degrees = np.bincount(u, weights=w, minlength=n)
        degrees += np.bincount(v, weights=w, minlength=n)
        self._degrees = degrees
        self._total_weight = float(w.sum())

    # ------------------------------------------------------------------
    # Alternative constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(
        cls,
        n_nodes: int,
        edge_u: np.ndarray,
        edge_v: np.ndarray,
        edge_w: np.ndarray | None = None,
    ) -> "Graph":
        """Build a graph from parallel edge arrays (the true fast path).

        Unlike the tuple-iterable constructor, this never materialises
        per-edge Python objects: the arrays go straight through vectorized
        validation, canonicalisation and CSR assembly.
        """
        graph = cls.__new__(cls)
        graph._n = _check_n_nodes(n_nodes)
        u_arr = np.asarray(edge_u)
        v_arr = np.asarray(edge_v)
        if edge_w is None:
            w_arr = np.ones(len(u_arr), dtype=np.float64)
        else:
            w_arr = np.asarray(edge_w)
        if not (len(u_arr) == len(v_arr) == len(w_arr)):
            raise GraphError(
                "edge_u, edge_v and edge_w must have equal lengths, got "
                f"{len(u_arr)}, {len(v_arr)}, {len(w_arr)}"
            )
        graph._assemble(u_arr, v_arr, w_arr)
        return graph

    @classmethod
    def from_networkx(cls, nx_graph: Any) -> "Graph":
        """Convert a ``networkx`` graph, relabelling nodes to ``0..n-1``.

        Node order follows ``nx_graph.nodes()``; edge ``weight`` attributes
        are honoured with default 1.0.
        """
        nodes = list(nx_graph.nodes())
        index = {node: i for i, node in enumerate(nodes)}
        edges = [
            (index[a], index[b], float(data.get("weight", 1.0)))
            for a, b, data in nx_graph.edges(data=True)
        ]
        return cls(len(nodes), edges)

    def to_networkx(self) -> Any:
        """Convert to an undirected weighted :class:`networkx.Graph`."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self._n))
        for u, v, w in self.edges():
            g.add_edge(int(u), int(v), weight=float(w))
        return g

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def n_edges(self) -> int:
        """Number of distinct edges (self-loops count once)."""
        return len(self._edge_u)

    @property
    def total_weight(self) -> float:
        """Sum of edge weights ``m`` (self-loops count once)."""
        return self._total_weight

    @property
    def degrees(self) -> np.ndarray:
        """Weighted degrees of all nodes (read-only view)."""
        view = self._degrees.view()
        view.flags.writeable = False
        return view

    def degree(self, node: int) -> float:
        """Weighted degree of ``node`` (self-loops count twice)."""
        return float(self._degrees[node])

    @property
    def density(self) -> float:
        """Unweighted edge density ``2|E| / (n (n-1))``, ignoring loops."""
        if self._n < 2:
            return 0.0
        simple_edges = int(np.sum(self._edge_u != self._edge_v))
        return 2.0 * simple_edges / (self._n * (self._n - 1))

    # ------------------------------------------------------------------
    # Iteration / queries
    # ------------------------------------------------------------------
    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Yield canonical ``(u, v, weight)`` triples with ``u <= v``."""
        for u, v, w in zip(
            self._edge_u.tolist(),
            self._edge_v.tolist(),
            self._edge_w.tolist(),
        ):
            yield u, v, w

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return read-only canonical edge arrays ``(u, v, w)``."""
        return _readonly_triple(self._edge_u, self._edge_v, self._edge_w)

    def to_arrays(self) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
        """``(n_nodes, edge_u, edge_v, edge_w)`` — a graph as plain arrays.

        ``Graph.from_arrays(*graph.to_arrays())`` reconstructs an equal
        graph: the returned arrays are already canonical (``u <= v``,
        duplicates merged, sorted), so the rebuild's canonicalisation
        pass is a stable no-op.
        """
        u, v, w = self.edge_arrays()
        return (self._n, u, v, w)

    def neighbors(self, node: int) -> np.ndarray:
        """Neighbour ids of ``node``, sorted ascending (self included
        for self-loops)."""
        if not 0 <= node < self._n:
            raise GraphError(f"node {node} outside 0..{self._n - 1}")
        return self._indices[self._indptr[node] : self._indptr[node + 1]]

    def neighbor_weights(self, node: int) -> np.ndarray:
        """Edge weights aligned with :meth:`neighbors`."""
        if not 0 <= node < self._n:
            raise GraphError(f"node {node} outside 0..{self._n - 1}")
        return self._weights[self._indptr[node] : self._indptr[node + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether edge ``(u, v)`` exists (binary search, O(log deg))."""
        if not (0 <= u < self._n and 0 <= v < self._n):
            return False
        return self._find_slot(u, v) >= 0

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of edge ``(u, v)``; 0.0 when absent (O(log deg))."""
        if not 0 <= u < self._n:
            raise GraphError(f"node {u} outside 0..{self._n - 1}")
        slot = self._find_slot(u, v)
        if slot < 0:
            return 0.0
        return float(self._weights[slot])

    def _find_slot(self, u: int, v: int) -> int:
        """CSR slot of neighbour ``v`` in row ``u``; -1 when absent.

        Rows are sorted ascending at build time, so this is a
        ``searchsorted`` over the row slice.
        """
        start = int(self._indptr[u])
        end = int(self._indptr[u + 1])
        pos = start + int(
            np.searchsorted(self._indices[start:end], v)
        )
        if pos < end and int(self._indices[pos]) == v:
            return pos
        return -1

    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return the symmetric CSR arrays ``(indptr, indices, weights)``."""
        return _readonly_triple(self._indptr, self._indices, self._weights)

    # ------------------------------------------------------------------
    # Matrices
    # ------------------------------------------------------------------
    def adjacency_matrix(self) -> np.ndarray:
        """Dense symmetric adjacency matrix ``A`` (self-loop on diagonal)."""
        a = np.zeros((self._n, self._n), dtype=np.float64)
        u, v, w = self._edge_u, self._edge_v, self._edge_w
        a[u, v] += w
        off = u != v
        a[v[off], u[off]] += w[off]
        return a

    def sparse_adjacency(self) -> Any:
        """Symmetric :class:`scipy.sparse.csr_matrix` adjacency.

        The returned matrix owns copies of the CSR arrays: callers may
        mutate it (``setdiag``, ``eliminate_zeros``, ...) without
        corrupting this immutable graph.
        """
        from scipy import sparse

        return sparse.csr_matrix(
            (
                self._weights.copy(),
                self._indices.copy(),
                self._indptr.copy(),
            ),
            shape=(self._n, self._n),
        )

    def modularity_matrix(self) -> np.ndarray:
        """Dense modularity matrix ``B = A - d d^T / (2m)`` (paper Eq. 1).

        Uses Newman's multigraph convention ``A_ii = 2w`` for self-loops
        (a self-loop contributes twice to the diagonal, exactly as it
        contributes twice to the degree), which makes the modularity of a
        partition invariant under super-node aggregation.  For an empty
        graph (``m == 0``) the null-model term vanishes and the doubled
        adjacency diagonal is returned.
        """
        a = self.adjacency_matrix()
        loops = self._edge_u[self._edge_u == self._edge_v]
        if len(loops):
            loop_w = self._edge_w[self._edge_u == self._edge_v]
            a[loops, loops] += loop_w
        two_m = 2.0 * self._total_weight
        if two_m == 0:
            return a
        d = self._degrees
        return a - np.outer(d, d) / two_m

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def connected_components(self) -> list[np.ndarray]:
        """Connected components as sorted arrays of node ids.

        Uses :func:`scipy.sparse.csgraph.connected_components`; components
        are ordered by their smallest member and each component's ids are
        ascending, matching the old BFS discovery order.
        """
        if self._n == 0:
            return []
        from scipy.sparse import csgraph

        n_comp, labels = csgraph.connected_components(
            self.sparse_adjacency(), directed=False
        )
        # Re-rank labels by first occurrence so component order follows
        # the smallest member (scipy's labelling already does this, but
        # the contract should not depend on scipy internals).
        _, first_idx = np.unique(labels, return_index=True)
        rank = np.empty(n_comp, dtype=np.int64)
        rank[np.argsort(first_idx, kind="stable")] = np.arange(n_comp)
        ranked = rank[labels]
        order = np.argsort(ranked, kind="stable")
        sizes = np.bincount(ranked, minlength=n_comp)
        bounds = np.concatenate([[0], np.cumsum(sizes)])
        return [
            order[bounds[i] : bounds[i + 1]].astype(np.int64)
            for i in range(n_comp)
        ]

    def subgraph(self, nodes: Sequence[int]) -> tuple["Graph", np.ndarray]:
        """Induced subgraph on ``nodes`` (vectorized).

        Returns the subgraph (with nodes relabelled ``0..len(nodes)-1`` in the
        given order) and the array mapping new ids back to original ids.
        """
        nodes_arr = np.asarray(list(nodes), dtype=np.int64)
        if len(np.unique(nodes_arr)) != len(nodes_arr):
            raise GraphError("subgraph nodes must be unique")
        if len(nodes_arr) and (
            nodes_arr.min() < 0 or nodes_arr.max() >= self._n
        ):
            raise GraphError(
                f"subgraph nodes must lie in 0..{self._n - 1}"
            )
        new_id = np.full(self._n, -1, dtype=np.int64)
        new_id[nodes_arr] = np.arange(len(nodes_arr), dtype=np.int64)
        u, v, w = self._edge_u, self._edge_v, self._edge_w
        keep = (new_id[u] >= 0) & (new_id[v] >= 0)
        sub = Graph.from_arrays(
            len(nodes_arr),
            new_id[u[keep]],
            new_id[v[keep]],
            w[keep],
        )
        return sub, nodes_arr

    # ------------------------------------------------------------------
    # Streaming updates
    # ------------------------------------------------------------------
    def apply_updates(
        self, edge_events: Iterable[Any]
    ) -> tuple["Graph", np.ndarray]:
        """Apply a batch of edge events, returning a new graph.

        The graph itself stays immutable: the batch produces a fresh
        :class:`Graph` plus the sorted array of *touched* node ids — the
        endpoints of every event, the rows whose degrees/adjacency may
        have changed.  The new graph is :meth:`from_arrays` over the
        surviving edges, then the reweights, then the inserts in
        delivery order, so it is exactly what direct construction from
        that edge list gives.

        Parameters
        ----------
        edge_events:
            Iterable of ``(op, u, v)`` / ``(op, u, v, w)`` tuples or
            ``{"op": ..., "u": ..., "v": ..., "w": ...}`` dicts with
            ``op`` one of:

            * ``"insert"`` — add weight ``w`` (default 1.0) to edge
              ``(u, v)``; inserting an existing edge sums into it and
              duplicate inserts in one batch merge by summation,
              exactly like duplicate edges at construction;
            * ``"delete"`` — remove edge ``(u, v)`` entirely; deleting
              a missing edge is a no-op;
            * ``"reweight"`` — set the weight of edge ``(u, v)`` to
              ``w`` (required), creating the edge when absent; for
              duplicate reweights of one edge the last event wins.

            Within a batch, deletions apply first, then reweights,
            then inserts, regardless of listed order.

        Returns
        -------
        (graph, touched):
            The updated graph and the sorted unique node ids appearing
            as an endpoint of any event (no-op deletes included).  An
            empty batch returns an identical graph and an empty array.

        Examples
        --------
        >>> g = Graph(4, [(0, 1), (1, 2)])
        >>> g2, touched = g.apply_updates(
        ...     [("insert", 2, 3), ("delete", 0, 1)]
        ... )
        >>> sorted(g2.edges())
        [(1, 2, 1.0), (2, 3, 1.0)]
        >>> touched.tolist()
        [0, 1, 2, 3]
        """
        kinds: list[int] = []
        us: list[int] = []
        vs: list[int] = []
        ws: list[float] = []
        for event in edge_events:
            if isinstance(event, dict):
                unknown = sorted(set(event) - {"op", "u", "v", "w"})
                if unknown:
                    raise GraphError(
                        f"unknown edge-event keys {unknown}; "
                        "expected op/u/v/w"
                    )
                op = event.get("op")
                raw = (event.get("u"), event.get("v"), event.get("w"))
            else:
                item = tuple(event)
                if len(item) not in (3, 4):
                    raise GraphError(
                        "edge events must be (op, u, v[, w]) tuples or "
                        f"op/u/v/w dicts, got {event!r}"
                    )
                op = item[0]
                raw = (item[1], item[2], item[3] if len(item) == 4 else None)
            code = _EVENT_OPS.get(op)  # type: ignore[arg-type]
            if code is None:
                known = ", ".join(sorted(_EVENT_OPS))
                raise GraphError(
                    f"unknown edge-event op {op!r}; known ops: {known}"
                )
            u, v, w = raw
            if u is None or v is None:
                raise GraphError(
                    f"edge event {event!r} is missing an endpoint"
                )
            if w is None:
                if code == _EVENT_OPS["reweight"]:
                    raise GraphError(
                        f"reweight event {event!r} requires a weight"
                    )
                w = 1.0
            if isinstance(w, bool) or not isinstance(w, _REAL_TYPES):
                raise GraphError(
                    f"edge event {event!r} has a non-numeric weight {w!r}"
                )
            kinds.append(code)
            us.append(_event_node(u, event))
            vs.append(_event_node(v, event))
            ws.append(float(w))

        n = self._n
        if not kinds:
            same = Graph.from_arrays(
                n, self._edge_u, self._edge_v, self._edge_w
            )
            return same, np.empty(0, dtype=np.int64)

        kind = np.asarray(kinds, dtype=np.int64)
        u_arr = np.asarray(us, dtype=np.int64)
        v_arr = np.asarray(vs, dtype=np.int64)
        w_arr = np.asarray(ws, dtype=np.float64)
        # Deletes never reach from_arrays' bounds check, and an
        # out-of-range key lo * n + hi could alias a real edge.
        adds = kind != _EVENT_OPS["delete"]
        _check_edges("edge event", n, u_arr, v_arr, w_arr, weighted=adds)

        lo = np.minimum(u_arr, v_arr)
        hi = np.maximum(u_arr, v_arr)
        event_keys = lo * n + hi
        edge_keys = self._edge_u * n + self._edge_v

        # Deletes and reweights both evict the existing entry; reweights
        # re-add theirs with the new weight (set, not sum, semantics).
        reweight = kind == _EVENT_OPS["reweight"]
        keep = ~np.isin(edge_keys, event_keys[~adds | reweight])

        rw_lo, rw_hi, rw_w = lo[reweight], hi[reweight], w_arr[reweight]
        if len(rw_lo):
            # Last event wins per edge: first occurrence in the reversed
            # key array is the last occurrence in delivery order.
            rw_keys = event_keys[reweight]
            _, rev_first = np.unique(rw_keys[::-1], return_index=True)
            last = len(rw_keys) - 1 - rev_first
            rw_lo, rw_hi, rw_w = rw_lo[last], rw_hi[last], rw_w[last]

        # from_arrays' stable merge folds each edge's inserts, in
        # delivery order, onto its kept or reweighted entry.
        insert = kind == _EVENT_OPS["insert"]
        updated = Graph.from_arrays(
            n,
            np.concatenate([self._edge_u[keep], rw_lo, lo[insert]]),
            np.concatenate([self._edge_v[keep], rw_hi, hi[insert]]),
            np.concatenate([self._edge_w[keep], rw_w, w_arr[insert]]),
        )
        touched = np.unique(np.concatenate([lo, hi]))
        return updated, touched

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"Graph(n_nodes={self._n}, n_edges={self.n_edges}, "
            f"total_weight={self._total_weight:g})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self._n == other._n
            and np.array_equal(self._edge_u, other._edge_u)
            and np.array_equal(self._edge_v, other._edge_v)
            and np.allclose(self._edge_w, other._edge_w)
        )

    def __hash__(self) -> int:  # pragma: no cover - identity hash is enough
        return id(self)
