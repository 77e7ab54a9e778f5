"""Modularity-gain local-moving refinement (REFINE in Algorithm 2).

Nodes are repeatedly reassigned to the neighbouring community with the
highest positive modularity gain until a pass makes no move or the pass
budget is exhausted (paper §III-B.2, Uncoarsening and Refinement step 2).
Gains are maintained incrementally from community degree sums, so a full
pass costs O(|E|).

The per-node loop runs on Python lists and a dict, converted from the
graph's arrays once per call.  A node of a sparse graph has about a
dozen neighbours (13 on the n=1000 LFR benchmark graphs); on slices
that short each numpy call costs more in dispatch than in arithmetic,
and the earlier vectorised loop made about two dozen of them per node
(slices, a mask, a unique/inverse pair, a segment sum, a search, the
gain arithmetic).

Contract: labels and move counts are bit-identical to that vectorised
loop, which ``tests/community/test_refine_equivalence.py`` keeps as the
reference.  Each neighbouring community's weight is summed in neighbour
order starting from 0.0, as ``np.bincount`` adds; candidates are visited
in ascending label order; the gain
``(w_c - w_cur) / m - d_i * (S_c - (S_cur - d_i)) / (2 m^2)`` is
evaluated left to right in the same float operations; tolerance and
tie-breaking are unchanged.

The same routine doubles as Louvain's phase 1 when started from singleton
communities (see :mod:`repro.community.louvain`).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import PartitionError
from repro.graphs.graph import Graph
from repro.utils.validation import check_integer


def check_partition(graph: Graph, labels: np.ndarray) -> np.ndarray:
    """Validate a caller-supplied partition (warm starts, projections).

    Returns the labels as a fresh ``int64`` array of shape
    ``(n_nodes,)``; raises :class:`repro.exceptions.PartitionError` on
    wrong shape, non-integer values or negative labels.
    """
    arr = np.asarray(labels)
    if arr.shape != (graph.n_nodes,):
        raise PartitionError(
            f"partition must have shape ({graph.n_nodes},), "
            f"got {arr.shape}"
        )
    if not np.issubdtype(arr.dtype, np.integer):
        if arr.size and not np.all(np.equal(np.mod(arr, 1), 0)):
            raise PartitionError(
                "partition labels must be integers, got dtype "
                f"{arr.dtype}"
            )
    out = arr.astype(np.int64)
    if out.size and int(out.min()) < 0:
        raise PartitionError("partition labels must be non-negative")
    return out


def refine_labels(
    graph: Graph,
    labels: np.ndarray,
    max_passes: int = 10,
    tolerance: float = 1e-12,
    seed=None,
) -> tuple[np.ndarray, int]:
    """Greedy local moving until (near) convergence.

    Parameters
    ----------
    graph:
        The graph being partitioned.
    labels:
        Initial community assignment (not mutated): non-negative
        integers, validated by :func:`check_partition`.
    max_passes:
        Maximum sweeps over all nodes.
    tolerance:
        Minimum gain for a move to be applied.
    seed:
        ``None`` visits nodes in ascending id order (fully deterministic).
        A seed randomises the visiting order per pass — the standard
        Louvain-style randomisation, used by the evaluation to measure
        run-to-run variance (the ± columns of Table II).

    Returns
    -------
    (labels, n_moves):
        The refined assignment and the total number of moves applied.

    Raises
    ------
    PartitionError
        If ``labels`` has the wrong shape, or holds negative or
        non-integral values.

    Notes
    -----
    Moves are restricted to communities adjacent to the node (plus staying
    put), which is both the standard Louvain-style neighbourhood and what
    keeps each pass linear in the edge count.
    """
    check_integer(max_passes, "max_passes", minimum=1)
    labels = check_partition(graph, labels)
    m = graph.total_weight
    if m <= 0 or graph.n_nodes == 0:
        return labels, 0

    rng = None
    if seed is not None:
        from repro.utils.rng import ensure_rng

        rng = ensure_rng(seed)

    degree_sums = np.zeros(int(labels.max()) + 1, dtype=np.float64)
    np.add.at(degree_sums, labels, graph.degrees)
    # Plain lists from here on (see the module docstring).
    sums = degree_sums.tolist()
    label_of = labels.tolist()
    degrees = graph.degrees.tolist()
    indptr, indices, weights = (array.tolist() for array in graph.csr())
    two_m_squared = 2.0 * m * m

    total_moves = 0
    for _ in range(max_passes):
        moves_this_pass = 0
        if rng is None:
            node_order = range(graph.n_nodes)
        else:
            node_order = rng.permutation(graph.n_nodes).tolist()
        for node in node_order:
            start, end = indptr[node], indptr[node + 1]
            # Edge weight into each neighbouring community, summed in
            # neighbour order from 0.0 (self-loops dropped).
            weight_to: dict[int, float] = {}
            for neighbor, w in zip(indices[start:end], weights[start:end]):
                if neighbor != node:
                    c = label_of[neighbor]
                    weight_to[c] = weight_to.get(c, 0.0) + w
            if not weight_to:
                continue

            current = label_of[node]
            d_i = degrees[node]
            w_current = weight_to.get(current, 0.0)
            d_current_removed = sums[current] - d_i
            best_gain = 0.0
            best_community = current
            for c in sorted(weight_to):
                if c == current:
                    continue
                gain = (weight_to[c] - w_current) / m - d_i * (
                    sums[c] - d_current_removed
                ) / two_m_squared
                if gain > best_gain + tolerance or (
                    gain > best_gain and c < best_community
                ):
                    best_gain = gain
                    best_community = c
            if best_community != current and best_gain > tolerance:
                label_of[node] = best_community
                sums[current] -= d_i
                sums[best_community] += d_i
                moves_this_pass += 1
        total_moves += moves_this_pass
        if moves_this_pass == 0:
            break
    return np.array(label_of, dtype=np.int64), total_moves
