"""Scenario: community detection on a social-network-like graph.

The paper's motivating application (§I) is community detection in social
networks — heavy-tailed degree distributions, high clustering, and
communities of uneven sizes.  This example:

1. builds a facebook-like synthetic network (matched to the Table II
   facebook instance, scaled down for a laptop run),
2. runs the multilevel QHD pipeline (Algorithm 2),
3. compares against Louvain, the experiments' classical baseline,
4. prints per-community statistics an analyst would inspect.

Run:
    python examples/social_network_analysis.py
"""

from __future__ import annotations

import numpy as np

from repro.community import (
    MultilevelConfig,
    MultilevelDetector,
    conductance,
    coverage,
    louvain,
    modularity,
)
from repro.datasets import build_matched_graph, get_instance, scaled_spec
from repro.experiments.reporting import format_table
from repro.qhd import QhdSolver
from repro.utils.timer import Stopwatch


def main() -> None:
    # A synthetic substitute for the SNAP facebook graph at 15% scale.
    spec = scaled_spec(get_instance("facebook"), 0.15)
    graph, _ = build_matched_graph(spec, mixing=0.2, seed=42)
    print(
        f"facebook-like network: {graph.n_nodes} nodes, "
        f"{graph.n_edges} edges (paper instance: 4,039 / 88,234)"
    )

    # --- The paper's multilevel QHD pipeline -------------------------
    detector = MultilevelDetector(
        QhdSolver(n_samples=16, n_steps=100, grid_points=16, seed=42),
        config=MultilevelConfig(threshold=120),
    )
    qhd_result = detector.detect(graph, n_communities=10)
    print(
        f"\nmultilevel QHD: Q={qhd_result.modularity:.4f} in "
        f"{qhd_result.wall_time:.2f}s "
        f"({qhd_result.metadata['levels']} coarsening levels, "
        f"coarsest {qhd_result.metadata['coarsest_nodes']} super-nodes)"
    )

    # --- Classical baseline -------------------------------------------
    watch = Stopwatch().start()
    louvain_labels = louvain(graph)
    watch.stop()
    rows = [
        [
            "multilevel-qhd",
            qhd_result.modularity,
            qhd_result.n_communities,
            qhd_result.wall_time,
        ],
        [
            "louvain",
            modularity(graph, louvain_labels),
            len(np.unique(louvain_labels)),
            watch.elapsed,
        ],
    ]
    print()
    print(
        format_table(
            ["method", "modularity", "communities", "time_s"],
            rows,
        )
    )

    # --- Analyst view: per-community quality ---------------------------
    labels = qhd_result.labels
    cond = conductance(graph, labels)
    values, counts = np.unique(labels, return_counts=True)
    community_rows = [
        [int(c), int(size), cond[int(c)]]
        for c, size in sorted(
            zip(values, counts), key=lambda item: -item[1]
        )[:8]
    ]
    print()
    print(
        format_table(
            ["community", "size", "conductance"],
            community_rows,
            title="largest detected communities",
        )
    )
    print(f"\nedge coverage: {coverage(graph, labels):.3f}")


if __name__ == "__main__":
    main()
