"""Graph aggregation by community labels.

Collapsing each community into a super-node (keeping intra-community weight
as a self-loop) preserves weighted degrees and total weight, so the
modularity of any partition of the aggregate equals the modularity of its
pre-image — the identity both Louvain's second phase and the multilevel
pipeline rely on.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import PartitionError
from repro.graphs.graph import Graph


def aggregate_graph(
    graph: Graph, labels: np.ndarray
) -> tuple[Graph, np.ndarray]:
    """Collapse communities of ``graph`` into super-nodes.

    Parameters
    ----------
    graph:
        Input graph.
    labels:
        Community id per node; ids need not be contiguous.

    Returns
    -------
    (aggregate, mapping):
        The aggregated graph on ``k`` super-nodes and the dense mapping
        array (``mapping[node] -> super_node``) with super-nodes numbered
        by ascending original label.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (graph.n_nodes,):
        raise PartitionError(
            f"labels must have shape ({graph.n_nodes},), got {labels.shape}"
        )
    unique, mapping = np.unique(labels, return_inverse=True)
    edge_u, edge_v, edge_w = graph.edge_arrays()
    # Graph.from_arrays merges the parallel super-edges by summation.
    aggregate = Graph.from_arrays(
        len(unique), mapping[edge_u], mapping[edge_v], edge_w
    )
    return aggregate, mapping
