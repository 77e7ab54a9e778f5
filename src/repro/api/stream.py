"""Streaming detection over dynamic graphs (``api.detect_stream``).

A stream is a sequence of **edge-event batches** applied to an evolving
graph; after every batch the detection spec is re-run on the updated
graph and one :class:`repro.api.RunArtifact` is yielded.  Three pieces
of state carry across events:

* the **graph** advances through :meth:`repro.graphs.Graph.apply_updates`
  (vectorized CSR rebuild from canonical edge arrays, never a Python
  edge loop),
* the **QUBO** advances through
  :class:`repro.qubo.CommunityQuboPatcher` — per batch one
  :func:`repro.qubo.build_community_qubo` on the new graph with the
  penalties pinned at the stream's first build, which writes canonical
  form in one pass,
* the **flip-delta state** advances through
  :meth:`repro.qubo.FlipDeltaState.repatch` — the maintained local
  fields are re-materialised against the new model while the tracked
  assignment (the previous partition, one-hot) is kept, so a greedy
  single-flip descent polishes the previous solution in QUBO space
  before the detector runs.

The polished labels are handed to the detector as
``initial_partition`` (see :meth:`DirectQuboDetector.detect`), so the
QUBO solve competes against the warm-started candidate by modularity.
Detectors without a warm-start knob (classical baselines) simply run
cold on each updated graph.

Event format
------------
Each element of ``updates`` is one batch: an iterable of
``(op, u, v[, w])`` tuples or ``{"op", "u", "v", "w"}`` dicts with
``op`` in ``insert`` / ``delete`` / ``reweight`` — exactly the
:meth:`Graph.apply_updates` contract (deletes before reweights before
inserts within a batch; duplicate inserts merge by summation).

Determinism
-----------
The stream runs strictly sequentially (batch ``i+1`` needs batch
``i``'s partition), every per-batch detector is freshly built from the
same seeded spec, and the QUBO-space descent is a deterministic
lowest-index-ties argmin walk — so a seeded stream is bit-reproducible
across runs, sessions and executor backends (pinned by the
``stream_*`` golden traces).

Examples
--------
>>> import repro.api as api
>>> from repro.graphs import ring_of_cliques
>>> graph, _ = ring_of_cliques(3, 5)
>>> spec = {"solver": "greedy", "n_communities": 3, "seed": 0}
>>> batches = [[("insert", 0, 7)], [("delete", 0, 7)]]
>>> artifacts = list(api.detect_stream(graph, batches, spec))
>>> [a.index for a in artifacts]
[0, 1]
>>> artifacts[1].result.metadata["stream_touched_nodes"]
2
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

import numpy as np

from repro.api import runner
from repro.api.spec import RunArtifact, RunSpec, SpecError

#: Safety cap on greedy descent steps per event batch, as a multiple
#: of the number of QUBO variables.  The descent is monotone (only
#: strictly improving flips are accepted), so this bounds the rare
#: long tail without changing typical behaviour.
_MAX_DESCENT_FLIPS = 2


class _WarmModelState:
    """The QUBO-space state of one stream.

    Owns the :class:`CommunityQuboPatcher`, built from one
    :func:`build_community_qubo` on the initial graph that pins the
    stream's penalties, and, once a partition has been observed, a
    :class:`FlipDeltaState` anchored at its one-hot encoding.  Per
    event batch the model is rebuilt with those penalties, the state is
    repatched, and a greedy descent polishes the tracked assignment.
    """

    def __init__(self, graph: Any, n_communities: int) -> None:
        from repro.qubo import CommunityQuboPatcher, build_community_qubo

        self._k = int(n_communities)
        self._qubo: Any = build_community_qubo(graph, self._k)
        self._patcher: Any = CommunityQuboPatcher(self._qubo)
        self._state: Any | None = None

    def release(self) -> None:
        """Drop the patcher / model / flip-delta references.

        Stream teardown: the QUBO and the flip-delta state's maintained
        fields are the stream's warm memory — O(n·k) plus
        coupling-nnz arrays each.  Called from the generator's
        ``finally`` so an abandoned stream (a consumer that ``break``s,
        or an HTTP client that disconnects) frees them
        deterministically instead of keeping them alive as long as the
        suspended generator object exists.
        """
        self._qubo = None
        self._patcher = None
        self._state = None

    def advance(self, graph: Any) -> None:
        """Rebuild the model on ``graph`` and re-materialise the state.

        :meth:`CommunityQuboPatcher.update` builds the new model with
        the pinned penalties; the ``repatch`` re-materialises every
        field because every batch moves the total weight ``2m``, which
        rescales all modularity couplings and null-model coefficients
        at once.
        """
        self._qubo = self._patcher.update(graph)
        if self._state is not None:
            self._state.repatch(self._qubo.model)

    def warm_labels(self, graph: Any) -> np.ndarray | None:
        """Greedy QUBO-space polish of the tracked assignment.

        Deterministic steepest single-flip descent on the maintained
        flip deltas (lowest index wins ties), decoded/repaired back to
        community labels.  ``None`` until a partition is tracked.
        """
        if self._state is None:
            return None
        from repro.qubo import decode_assignment

        state = self._state
        budget = _MAX_DESCENT_FLIPS * state.n_variables
        for _ in range(budget):
            index, delta = state.best_flip()
            if delta >= 0.0:
                break
            state.flip(index)
        return decode_assignment(
            state.x, self._qubo.variable_map, graph=graph
        )

    def track(self, labels: np.ndarray) -> None:
        """Anchor a fresh state at the one-hot encoding of ``labels``.

        The next :meth:`advance` repatches the state, which recomputes
        its fields and energy from the assignment alone, so nothing is
        carried over from the previous state.  Labels outside
        ``0..k-1`` (possible with detectors that grow their own label
        space) cannot be one-hot encoded; the trajectory restarts from
        the next in-range partition instead.
        """
        from repro.qubo import FlipDeltaState, labels_to_one_hot

        arr = np.asarray(labels)
        if arr.size and (int(arr.min()) < 0 or int(arr.max()) >= self._k):
            self._state = None
            return
        self._state = FlipDeltaState(
            self._qubo.model, labels_to_one_hot(arr, self._k)
        )


def detect_stream(
    graph: Any,
    updates: Iterable[Any],
    spec: RunSpec | dict[str, Any] | str,
    *,
    session: Any | None = None,
    warm_start: bool = True,
) -> Iterator[RunArtifact]:
    """Run one detection spec over an evolving graph, batch by batch.

    Parameters
    ----------
    graph:
        The initial :class:`repro.graphs.Graph`; never mutated (each
        batch produces a fresh graph via ``apply_updates``).
    updates:
        Iterable of edge-event batches (see the module docstring for
        the event format).  May be a lazy generator; batches are
        consumed one at a time.
    spec:
        The detection :class:`RunSpec` (or dict / JSON text) re-run
        after every batch; ``n_communities`` is required.
    session:
        The :class:`repro.api.Session` the stream runs in (its
        :meth:`~repro.api.Session.stats` count every batch, and
        closing it stops the stream); ``None`` uses the process-wide
        :func:`repro.api.default_session`.
    warm_start:
        ``True`` (default) maintains the stream's QUBO (penalties
        pinned at the first batch) and flip-delta state and
        warm-starts every detector run with the polished
        previous partition; ``False`` runs each batch cold (the graph
        still advances incrementally).

    Yields
    ------
    RunArtifact:
        One per event batch, ``index`` = batch position.  The result's
        metadata gains ``stream_batch`` and ``stream_touched_nodes``
        (endpoint count of the batch's events).

    Examples
    --------
    >>> import repro.api as api
    >>> from repro.graphs import ring_of_cliques
    >>> graph, _ = ring_of_cliques(3, 4)
    >>> spec = {"solver": "greedy", "n_communities": 3, "seed": 1}
    >>> updates = [[("insert", 0, 4, 2.0)], []]
    >>> [a.result.n_communities for a in
    ...  api.detect_stream(graph, updates, spec)]
    [3, 3]
    """
    resolved = runner._spec_of(spec)
    if resolved.n_communities is None:
        raise SpecError("spec.n_communities is required for detect_stream")
    if session is None:
        from repro.api.session import default_session

        session = default_session()
    return _stream(graph, updates, resolved, session, bool(warm_start))


def _stream(
    graph: Any,
    updates: Iterable[Any],
    spec: RunSpec,
    session: Any,
    warm_start: bool,
) -> Iterator[RunArtifact]:
    model_state = (
        _WarmModelState(graph, int(spec.n_communities))
        if warm_start
        else None
    )
    previous: np.ndarray | None = None
    # The finally is the stream's teardown contract: a consumer that
    # abandons the generator mid-stream (``break``, a dropped HTTP
    # connection, ``gen.close()``) triggers GeneratorExit here, and the
    # warm QUBO/patcher/flip-delta state is released deterministically
    # instead of living as long as the suspended generator object.
    try:
        for index, events in enumerate(updates):
            session._check_open()
            graph, touched = graph.apply_updates(events)
            warm: np.ndarray | None = None
            if model_state is not None:
                model_state.advance(graph)
                warm = model_state.warm_labels(graph)
                if warm is None:
                    warm = previous
            artifact = runner._detect_one(
                graph, spec, index, initial_partition=warm
            )
            session._count(1)
            labels = np.asarray(artifact.result.labels)
            artifact.result.metadata["stream_batch"] = index
            artifact.result.metadata["stream_touched_nodes"] = int(
                np.asarray(touched).size
            )
            if model_state is not None:
                model_state.track(labels)
            previous = labels
            yield artifact
    finally:
        if model_state is not None:
            model_state.release()
