"""``refine_labels`` is bit-identical to the vectorised loop it replaced.

``_numpy_refine_labels`` below is a frozen copy of the earlier
implementation (one ``np.unique`` + ``np.bincount`` segment sum per
node).  The list kernel in :mod:`repro.community.refinement` must
reproduce its labels and move counts exactly — no tolerance — for every
graph, start, seed and pass budget.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.community.refinement import refine_labels
from repro.graphs.generators import planted_partition_graph
from repro.graphs.graph import Graph
from repro.graphs.lfr import lfr_graph


def _numpy_refine_labels(graph, labels, max_passes=10, tolerance=1e-12,
                         seed=None):
    """The earlier numpy local-moving loop, kept as the reference."""
    labels = np.asarray(labels, dtype=np.int64).copy()
    m = graph.total_weight
    if m <= 0 or graph.n_nodes == 0:
        return labels, 0

    rng = None
    if seed is not None:
        from repro.utils.rng import ensure_rng

        rng = ensure_rng(seed)

    n_slots = int(labels.max()) + 1
    degree_sums = np.zeros(n_slots, dtype=np.float64)
    np.add.at(degree_sums, labels, graph.degrees)
    degrees = graph.degrees
    indptr, indices, weights = graph.csr()

    total_moves = 0
    for _ in range(max_passes):
        moves_this_pass = 0
        if rng is None:
            node_order = range(graph.n_nodes)
        else:
            node_order = rng.permutation(graph.n_nodes).tolist()
        for node in node_order:
            current = int(labels[node])
            d_i = float(degrees[node])
            start, end = int(indptr[node]), int(indptr[node + 1])
            neighbors = indices[start:end]
            nb_weights = weights[start:end]
            keep = neighbors != node
            neighbor_labels = labels[neighbors[keep]]
            if not len(neighbor_labels):
                continue
            candidates, compact = np.unique(
                neighbor_labels, return_inverse=True
            )
            weight_to = np.bincount(compact, weights=nb_weights[keep])

            position = int(np.searchsorted(candidates, current))
            if (
                position < len(candidates)
                and candidates[position] == current
            ):
                w_current = float(weight_to[position])
            else:
                w_current = 0.0
            d_current_removed = degree_sums[current] - d_i
            gains = (weight_to - w_current) / m - d_i * (
                degree_sums[candidates] - d_current_removed
            ) / (2.0 * m * m)

            best_gain = 0.0
            best_community = current
            for slot, c in enumerate(candidates.tolist()):
                if c == current:
                    continue
                gain = float(gains[slot])
                if gain > best_gain + tolerance or (
                    gain > best_gain and c < best_community
                ):
                    best_gain = gain
                    best_community = c
            if best_community != current and best_gain > tolerance:
                labels[node] = best_community
                degree_sums[current] -= d_i
                degree_sums[best_community] += d_i
                moves_this_pass += 1
        total_moves += moves_this_pass
        if moves_this_pass == 0:
            break
    return labels, total_moves


def _assert_same(graph, labels, **kwargs):
    got, got_moves = refine_labels(graph, labels, **kwargs)
    want, want_moves = _numpy_refine_labels(graph, labels, **kwargs)
    assert got.dtype == np.int64
    assert np.array_equal(got, want)
    assert got_moves == want_moves
    return got_moves


@st.composite
def _cases(draw):
    """A weighted graph (self-loops, isolated nodes) and a gappy start."""
    n = draw(st.integers(min_value=1, max_value=24))
    # Repeated weights make gain ties, exact or off by one rounding
    # (0.1 + 0.2 != 0.3); arbitrary floats exercise the summation order.
    weight = st.one_of(
        st.sampled_from([0.1, 0.2, 0.3, 0.6, 0.7, 1.0, 2.0]),
        st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
    )
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1), weight
            ),
            max_size=3 * n,
        )
    )
    # Label values drawn from a sparse pool, so the maximum label
    # usually exceeds the number of distinct labels.
    pool = draw(
        st.lists(st.integers(0, 40), min_size=1, max_size=6, unique=True)
    )
    labels = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    return Graph(n, edges), np.array(labels, dtype=np.int64)


# Small graphs where the move depends on one rounding or on the tie rule:
# each was found by searching random graphs for a start on which a
# mutated kernel (another summation order, a reassociated gain, the
# opposite tie preference) disagrees with the reference.
_NEAR_TIES = [
    pytest.param(
        6,
        [(0, 0, 0.3), (2, 0, 0.3), (4, 0, 0.7), (0, 2, 0.7), (2, 4, 0.7),
         (5, 2, 0.3), (0, 1, 0.1), (0, 3, 0.2), (0, 4, 0.2)],
        [3, 2, 2, 2, 1, 2],
        1e-12,
        id="tie-rule",
    ),
    pytest.param(
        4,
        [(0, 1, 0.7), (1, 2, 0.3), (0, 1, 0.2), (2, 3, 0.3), (2, 2, 0.1)],
        [1, 3, 2, 3],
        0.0,
        id="gain-rounding",
    ),
    pytest.param(
        6,
        [(3, 2, 0.3), (0, 2, 0.1), (4, 0, 0.6), (0, 5, 0.7), (3, 0, 0.3),
         (4, 3, 0.7), (4, 0, 0.7), (3, 5, 0.1), (2, 4, 0.7)],
        [1, 2, 0, 2, 0, 0],
        0.0,
        id="summation-order",
    ),
]


class TestMatchesNumpyLoop:
    @pytest.mark.parametrize("n, edges, start, tolerance", _NEAR_TIES)
    def test_near_ties(self, n, edges, start, tolerance):
        _assert_same(
            Graph(n, edges), np.array(start), max_passes=3,
            tolerance=tolerance,
        )

    @settings(max_examples=300, deadline=None)
    @given(
        case=_cases(),
        seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
        max_passes=st.integers(1, 10),
        # A zero tolerance lets a one-ulp gain difference decide a move.
        tolerance=st.sampled_from([1e-12, 0.0]),
    )
    def test_random_graphs_and_starts(
        self, case, seed, max_passes, tolerance
    ):
        graph, labels = case
        _assert_same(
            graph, labels, max_passes=max_passes, seed=seed,
            tolerance=tolerance,
        )

    def test_lfr_1000_eight_community_start(self):
        graph, _ = lfr_graph(1000, mixing=0.2, average_degree=8.0, seed=1)
        start = np.random.default_rng(1).integers(0, 8, graph.n_nodes)
        for seed in (None, 7):
            assert _assert_same(graph, start, max_passes=5, seed=seed) > 0

    def test_louvain_start_from_singletons(self):
        graph, _ = planted_partition_graph(4, 25, 0.3, 0.03, seed=11)
        singletons = np.arange(graph.n_nodes, dtype=np.int64)
        assert _assert_same(graph, singletons, max_passes=10) > 0
