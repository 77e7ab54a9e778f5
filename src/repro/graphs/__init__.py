"""Graph substrate: CSR graphs, generators, IO and coarsening."""

from repro.graphs.graph import Graph
from repro.graphs.coarsen import (
    CoarseningHierarchy,
    CoarseningLevel,
    coarsen_graph,
    coarsen_to_threshold,
    heavy_edge_matching,
    hybrid_edge_scores,
)
from repro.graphs.generators import (
    erdos_renyi_graph,
    planted_partition_graph,
    power_law_cluster_graph,
    ring_of_cliques,
    stochastic_block_model_graph,
)
from repro.graphs.lfr import lfr_graph
from repro.graphs.io import read_edge_list, write_edge_list

__all__ = [
    "Graph",
    "CoarseningHierarchy",
    "CoarseningLevel",
    "coarsen_graph",
    "coarsen_to_threshold",
    "heavy_edge_matching",
    "hybrid_edge_scores",
    "erdos_renyi_graph",
    "planted_partition_graph",
    "power_law_cluster_graph",
    "ring_of_cliques",
    "stochastic_block_model_graph",
    "lfr_graph",
    "read_edge_list",
    "write_edge_list",
]
