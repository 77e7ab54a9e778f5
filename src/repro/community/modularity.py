"""Modularity (paper Eq. 1) and its building blocks.

    Q = (1/2m) sum_ij (A_ij - d_i d_j / 2m) delta(c_i, c_j)

Self-loop convention: a self-loop of weight ``w`` contributes ``w`` to
``A_ii`` (counted once in the double sum) and ``2w`` to the degree — the
convention under which coarsening a graph preserves the modularity of
projected partitions exactly.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import PartitionError
from repro.graphs.graph import Graph


def _check_labels(graph: Graph, labels: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (graph.n_nodes,):
        raise PartitionError(
            f"labels must have shape ({graph.n_nodes},), got {labels.shape}"
        )
    if graph.n_nodes and labels.min() < 0:
        raise PartitionError("labels must be non-negative")
    return labels


def modularity(graph: Graph, labels: np.ndarray) -> float:
    """Modularity of a partition (Eq. 1); O(|E| + n).

    Examples
    --------
    >>> from repro.graphs import ring_of_cliques
    >>> graph, truth = ring_of_cliques(4, 5)
    >>> modularity(graph, truth) > 0.6
    True
    """
    labels = _check_labels(graph, labels)
    two_m = 2.0 * graph.total_weight
    if two_m == 0:
        return 0.0
    edge_u, edge_v, edge_w = graph.edge_arrays()
    label_of = labels.tolist()
    internal = 0.0
    for u, v, w in zip(edge_u.tolist(), edge_v.tolist(), edge_w.tolist()):
        if label_of[u] == label_of[v]:
            # Every edge contributes 2w to the double sum: off-diagonal
            # edges appear at (i, j) and (j, i); a self-loop has A_ii = 2w
            # (Newman's multigraph convention, which also makes modularity
            # invariant under super-node aggregation).
            internal += 2.0 * w
    degree_sums = community_degree_sums(graph, labels)
    null = float(np.sum(degree_sums**2)) / two_m
    return (internal - null) / two_m


def community_degree_sums(graph: Graph, labels: np.ndarray) -> np.ndarray:
    """Total weighted degree per community, indexed by label value."""
    labels = _check_labels(graph, labels)
    n_comm = int(labels.max()) + 1 if len(labels) else 0
    sums = np.zeros(n_comm, dtype=np.float64)
    np.add.at(sums, labels, graph.degrees)
    return sums
