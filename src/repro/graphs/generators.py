"""Random-graph generators used as workloads throughout the evaluation.

All generators are implemented natively on numpy (no networkx dependency) so
that instance generation is fast and reproducible from a single integer seed.
Each returns a :class:`repro.graphs.Graph`; generators with planted community
structure also return the ground-truth community labels.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import GraphError
from repro.graphs.graph import Graph
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_integer, check_probability


def _sample_distinct_pairs(
    left: np.ndarray,
    right: np.ndarray,
    count: int,
    rng: np.random.Generator,
    forbid_equal: bool,
) -> set[tuple[int, int]]:
    """Sample ``count`` distinct unordered pairs from ``left × right``.

    Sampling is with replacement plus de-duplication and top-up, which is
    efficient in the sparse regimes the generators use.  The loop caps the
    number of rounds to guarantee termination even when ``count`` is close
    to the size of the pair space.
    """
    pairs: set[tuple[int, int]] = set()
    max_rounds = 64
    for _ in range(max_rounds):
        needed = count - len(pairs)
        if needed <= 0:
            break
        draw = max(needed, int(needed * 1.2) + 8)
        us = left[rng.integers(0, len(left), size=draw)]
        vs = right[rng.integers(0, len(right), size=draw)]
        for u, v in zip(us.tolist(), vs.tolist()):
            if forbid_equal and u == v:
                continue
            pair = (u, v) if u < v else (v, u)
            pairs.add(pair)
            if len(pairs) == count:
                break
    return pairs


def _pairs_to_arrays(
    pairs: set[tuple[int, int]]
) -> tuple[np.ndarray, np.ndarray]:
    """Unzip a pair set into parallel (u, v) edge arrays."""
    if not pairs:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    arr = np.array(sorted(pairs), dtype=np.int64)
    return arr[:, 0], arr[:, 1]


def erdos_renyi_graph(
    n_nodes: int, edge_probability: float, seed: SeedLike = None
) -> Graph:
    """G(n, p) random graph.

    Edge count is drawn from Binomial(C(n,2), p) and that many distinct
    pairs are sampled uniformly, which is equivalent to G(n, p) and avoids
    materialising the full n x n Bernoulli matrix.

    Examples
    --------
    >>> g = erdos_renyi_graph(50, 0.1, seed=0)
    >>> g.n_nodes
    50
    """
    n = check_integer(n_nodes, "n_nodes", minimum=0)
    p = check_probability(edge_probability, "edge_probability")
    rng = ensure_rng(seed)
    if n < 2 or p == 0.0:
        return Graph(n, [])
    n_pairs = n * (n - 1) // 2
    count = int(rng.binomial(n_pairs, p))
    nodes = np.arange(n)
    pairs = _sample_distinct_pairs(nodes, nodes, count, rng, forbid_equal=True)
    edge_u, edge_v = _pairs_to_arrays(pairs)
    return Graph.from_arrays(n, edge_u, edge_v)


def stochastic_block_model_graph(
    block_sizes: list[int],
    probability_matrix: np.ndarray,
    seed: SeedLike = None,
) -> tuple[Graph, np.ndarray]:
    """Stochastic block model.

    Parameters
    ----------
    block_sizes:
        Node count of each block; blocks are laid out consecutively.
    probability_matrix:
        Symmetric ``k x k`` matrix of edge probabilities.

    Returns
    -------
    (graph, labels):
        The sampled graph and the planted block label of every node.
    """
    sizes = [check_integer(s, "block size", minimum=1) for s in block_sizes]
    probs = np.asarray(probability_matrix, dtype=float)
    k = len(sizes)
    if probs.shape != (k, k):
        raise GraphError(
            f"probability_matrix must be {k}x{k}, got shape {probs.shape}"
        )
    if not np.allclose(probs, probs.T):
        raise GraphError("probability_matrix must be symmetric")
    if np.any(probs < 0) or np.any(probs > 1):
        raise GraphError("probability_matrix entries must be in [0, 1]")

    rng = ensure_rng(seed)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    n = int(offsets[-1])
    labels = np.concatenate(
        [np.full(size, b, dtype=np.int64) for b, size in enumerate(sizes)]
    )

    edge_blocks: list[np.ndarray] = []
    for a in range(k):
        block_a = np.arange(offsets[a], offsets[a + 1])
        for b in range(a, k):
            p = float(probs[a, b])
            if p == 0.0:
                continue
            if a == b:
                n_pairs = len(block_a) * (len(block_a) - 1) // 2
                count = int(rng.binomial(n_pairs, p)) if n_pairs else 0
                pairs = _sample_distinct_pairs(
                    block_a, block_a, count, rng, forbid_equal=True
                )
            else:
                block_b = np.arange(offsets[b], offsets[b + 1])
                n_pairs = len(block_a) * len(block_b)
                count = int(rng.binomial(n_pairs, p))
                pairs = _sample_distinct_pairs(
                    block_a, block_b, count, rng, forbid_equal=False
                )
            edge_blocks.append(np.column_stack(_pairs_to_arrays(pairs)))
    if edge_blocks:
        stacked = np.concatenate(edge_blocks, axis=0)
        graph = Graph.from_arrays(n, stacked[:, 0], stacked[:, 1])
    else:
        graph = Graph(n, [])
    return graph, labels


def planted_partition_graph(
    n_communities: int,
    community_size: int,
    p_in: float,
    p_out: float,
    seed: SeedLike = None,
) -> tuple[Graph, np.ndarray]:
    """Planted-partition model: equal blocks, uniform in/out probabilities.

    A convenience wrapper around :func:`stochastic_block_model_graph` with
    ``probability_matrix = p_out + (p_in - p_out) I``.
    """
    k = check_integer(n_communities, "n_communities", minimum=1)
    size = check_integer(community_size, "community_size", minimum=1)
    check_probability(p_in, "p_in")
    check_probability(p_out, "p_out")
    probs = np.full((k, k), float(p_out))
    np.fill_diagonal(probs, float(p_in))
    return stochastic_block_model_graph([size] * k, probs, seed=seed)


def power_law_cluster_graph(
    n_nodes: int,
    edges_per_node: int,
    triangle_probability: float,
    seed: SeedLike = None,
) -> Graph:
    """Holme-Kim power-law graph with tunable clustering.

    Growth model: each new node attaches ``edges_per_node`` edges by
    preferential attachment; after each attachment, with probability
    ``triangle_probability`` the next edge instead closes a triangle with a
    random neighbour of the previous target.  Produces the heavy-tailed
    degree distributions typical of the social networks in the paper's
    large-network evaluation (Table II).
    """
    n = check_integer(n_nodes, "n_nodes", minimum=1)
    m = check_integer(edges_per_node, "edges_per_node", minimum=1)
    p = check_probability(triangle_probability, "triangle_probability")
    if m >= n:
        raise GraphError(
            f"edges_per_node ({m}) must be < n_nodes ({n})"
        )
    rng = ensure_rng(seed)

    # repeated_nodes holds each node once per unit of degree, which makes
    # uniform sampling from it preferential attachment.
    repeated_nodes: list[int] = list(range(m))
    adjacency: list[set[int]] = [set() for _ in range(n)]
    edges: list[tuple[int, int, float]] = []

    def add_edge(u: int, v: int) -> None:
        adjacency[u].add(v)
        adjacency[v].add(u)
        edges.append((u, v, 1.0))
        repeated_nodes.append(u)
        repeated_nodes.append(v)

    for source in range(m, n):
        targets: set[int] = set()
        # First target is always preferential attachment.
        while len(targets) < m:
            candidate = repeated_nodes[rng.integers(0, len(repeated_nodes))]
            if candidate in targets or candidate == source:
                continue
            targets.add(candidate)
            if len(targets) < m and rng.random() < p:
                # Triad formation: connect to a neighbour of `candidate`.
                neighbour_pool = [
                    nb
                    for nb in adjacency[candidate]
                    if nb != source and nb not in targets
                ]
                if neighbour_pool:
                    friend = neighbour_pool[
                        rng.integers(0, len(neighbour_pool))
                    ]
                    targets.add(friend)
        for target in targets:
            add_edge(source, target)
    return Graph(n, edges)


def ring_of_cliques(
    n_cliques: int, clique_size: int
) -> tuple[Graph, np.ndarray]:
    """Deterministic ring of cliques: a classic community-detection testbed.

    ``n_cliques`` cliques of ``clique_size`` nodes, with one bridge edge
    linking consecutive cliques in a cycle.  The planted labels are the
    clique memberships; any sound CD method recovers them exactly.
    """
    k = check_integer(n_cliques, "n_cliques", minimum=1)
    s = check_integer(clique_size, "clique_size", minimum=2)
    edges: list[tuple[int, int, float]] = []
    labels = np.empty(k * s, dtype=np.int64)
    for c in range(k):
        base = c * s
        labels[base : base + s] = c
        for i in range(s):
            for j in range(i + 1, s):
                edges.append((base + i, base + j, 1.0))
    if k > 1:
        for c in range(k):
            this_last = c * s + (s - 1)
            next_first = ((c + 1) % k) * s
            if k == 2 and c == 1:
                break  # avoid doubling the single bridge for two cliques
            edges.append((this_last, next_first, 1.0))
    return Graph(k * s, edges), labels
