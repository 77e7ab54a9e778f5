"""The community QUBO of a stream of graph updates.

Static detection builds one QUBO per graph
(:func:`repro.qubo.builders.build_community_qubo`).  Under a stream of
edge events the graph changes a little per batch, and
:class:`CommunityQuboPatcher` moves the QUBO along with it:

* penalties are **pinned** at the first build — re-deriving
  :func:`repro.qubo.builders.default_penalties` from every intermediate
  graph would silently change the objective mid-stream;
* each batch's model is one ``build_community_qubo`` call on the new
  graph with the pinned ``lambda_A``, ``lambda_S``, modularity and cut
  weights and the first build's backend, so it is the model a
  from-scratch build with those parameters gives, by construction.

Cost per event batch: any edge event changes the total weight ``2m``,
which rescales **all** modularity couplings and the null-model
coefficients, so O(|E| k + n k) value work per batch is required
whatever the method.  Both builders do it in one pass that writes
canonical form directly: the dense one through the coupling's block
view, the sparse one by gathering its coupling from the graph's sorted
CSR with no sort and no symmetrisation.  For the same reason the
matching flip-delta refresh, :meth:`FlipDeltaState.repatch`,
re-materialises every maintained field: each depends on ``2m`` and on
the degrees.
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as np

from repro.exceptions import QuboError
from repro.graphs.graph import Graph
from repro.qubo.builders import CommunityQubo, build_community_qubo

__all__ = ["CommunityQuboPatcher"]


class CommunityQuboPatcher:
    """Moves a community QUBO along a stream of edge-event batches.

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
        self._pinned: dict[str, Any] = {
            "lambda_assignment": qubo.lambda_assignment,
            "lambda_balance": qubo.lambda_balance,
            "modularity_weight": qubo.modularity_weight,
            "cut_weight": qubo.cut_weight,
            "backend": qubo.backend,
        }

    @property
    def qubo(self) -> CommunityQubo:
        """The current (most recently updated) community QUBO."""
        return self._current

    @property
    def n_communities(self) -> int:
        """Pinned community count ``k``."""
        return self._k

    def apply_events(
        self, edge_events: Iterable[Any]
    ) -> tuple[CommunityQubo, np.ndarray]:
        """Apply one edge-event batch; returns ``(qubo, touched_nodes)``.

        Convenience composition of
        :meth:`repro.graphs.Graph.apply_updates` on the current graph
        and :meth:`update` on its result.
        """
        graph, touched = self._current.graph.apply_updates(edge_events)
        return self.update(graph), touched

    def update(self, graph: Graph) -> CommunityQubo:
        """The QUBO of ``graph`` (same node set, new edges).

        One :func:`build_community_qubo` call with the pinned
        parameters.  Returns the new :class:`CommunityQubo`, which also
        becomes :attr:`qubo`.
        """
        if graph.n_nodes != self._n:
            raise QuboError(
                f"patched graph must keep {self._n} nodes, "
                f"got {graph.n_nodes}"
            )
        self._current = build_community_qubo(graph, self._k, **self._pinned)
        return self._current

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CommunityQuboPatcher(n_nodes={self._n}, "
            f"n_communities={self._k}, "
            f"backend={self._pinned['backend']!r})"
        )
