"""Community detection core: the paper's primary contribution.

Direct QUBO-based detection for small networks (§III-B.1), the multilevel
coarsen/solve/refine pipeline for large networks (§III-B.2, Algorithm 2),
the Louvain baseline the experiments compare against, and partition
quality metrics.
"""

from repro.community.modularity import community_degree_sums, modularity
from repro.community.partition import Partition
from repro.community.result import CommunityResult
from repro.community.aggregate import aggregate_graph
from repro.community.refinement import refine_labels
from repro.community.direct import DirectQuboDetector
from repro.community.multilevel import MultilevelConfig, MultilevelDetector
from repro.community.louvain import louvain
from repro.community.metrics import (
    adjusted_rand_index,
    conductance,
    coverage,
    normalized_mutual_information,
    partition_summary,
)
from repro.community.detector import QhdCommunityDetector
from repro.community.adaptive import AdaptivePenaltyDetector

__all__ = [
    "modularity",
    "community_degree_sums",
    "Partition",
    "CommunityResult",
    "aggregate_graph",
    "refine_labels",
    "DirectQuboDetector",
    "MultilevelConfig",
    "MultilevelDetector",
    "louvain",
    "adjusted_rand_index",
    "normalized_mutual_information",
    "conductance",
    "coverage",
    "partition_summary",
    "QhdCommunityDetector",
    "AdaptivePenaltyDetector",
]
