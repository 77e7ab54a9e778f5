"""Behavioural contract of ``api.detect_stream`` (streaming detection).

The golden ``stream_*`` fixtures pin exact artifacts; these tests pin
the semantics: one artifact per batch, deterministic across runs and
session executors, warm starts never losing modularity to the cold
per-batch run, and the empty/error edges.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.api as api
from repro.api.session import Session, SessionError
from repro.api.spec import SpecError
from repro.graphs.generators import ring_of_cliques
from repro.graphs.graph import Graph

SPEC = {
    "detector": "direct",
    "solver": "simulated-annealing",
    "solver_config": {"n_sweeps": 40, "n_restarts": 2},
    "n_communities": 3,
    "seed": 7,
}

UPDATES = [
    [("insert", 0, 8, 2.0), ("delete", 0, 1)],
    [("reweight", 3, 4, 0.5), ("insert", 2, 10)],
    [],
    [("delete", 2, 10), ("insert", 1, 5, 1.5)],
]


def _graph():
    return ring_of_cliques(3, 5)[0]


def _labels(artifacts):
    return [a.result.labels.tolist() for a in artifacts]


class TestDetectStream:
    def test_one_artifact_per_batch_with_stream_metadata(self):
        artifacts = list(api.detect_stream(_graph(), UPDATES, SPEC))
        assert [a.index for a in artifacts] == [0, 1, 2, 3]
        for index, artifact in enumerate(artifacts):
            meta = artifact.result.metadata
            assert meta["stream_batch"] == index
        assert artifacts[2].result.metadata["stream_touched_nodes"] == 0
        assert artifacts[0].result.metadata["stream_touched_nodes"] == 3

    def test_deterministic_across_runs_and_executors(self):
        reference = list(api.detect_stream(_graph(), UPDATES, SPEC))
        for executor in ("thread", "process"):
            with Session(max_workers=2, executor=executor) as session:
                got = list(session.detect_stream(_graph(), UPDATES, SPEC))
            assert _labels(got) == _labels(reference)
            for a, b in zip(got, reference):
                assert a.result.modularity == b.result.modularity
                assert a.result.metadata == b.result.metadata

    def test_warm_start_never_below_cold_run(self):
        warm = list(api.detect_stream(_graph(), UPDATES, SPEC))
        cold = list(
            api.detect_stream(_graph(), UPDATES, SPEC, warm_start=False)
        )
        for w, c in zip(warm, cold):
            # The warm run keeps its own cold candidate (same seed, so
            # identical to the cold stream's) and only switches when
            # strictly better.
            assert w.result.modularity >= c.result.modularity

    def test_cold_stream_has_no_warm_metadata(self):
        artifacts = list(
            api.detect_stream(_graph(), UPDATES, SPEC, warm_start=False)
        )
        for artifact in artifacts:
            assert "warm_start" not in artifact.result.metadata
            assert "warm_selected" not in artifact.result.metadata

    def test_first_batch_runs_cold_then_warm(self):
        artifacts = list(api.detect_stream(_graph(), UPDATES, SPEC))
        assert "warm_start" not in artifacts[0].result.metadata
        for artifact in artifacts[1:]:
            assert artifact.result.metadata["warm_start"] is True
            assert isinstance(
                artifact.result.metadata["warm_selected"], bool
            )

    def test_updates_consumed_lazily(self):
        consumed = []

        def batches():
            for index, batch in enumerate(UPDATES):
                consumed.append(index)
                yield batch

        stream = api.detect_stream(_graph(), batches(), SPEC)
        assert consumed == []
        next(stream)
        assert consumed == [0]

    def test_empty_update_stream_yields_nothing(self):
        assert list(api.detect_stream(_graph(), [], SPEC)) == []

    def test_requires_n_communities(self):
        spec = {k: v for k, v in SPEC.items() if k != "n_communities"}
        with pytest.raises(SpecError):
            api.detect_stream(_graph(), UPDATES, spec)

    def test_closed_session_raises(self):
        session = Session()
        stream = session.detect_stream(_graph(), UPDATES, SPEC)
        session.close()
        with pytest.raises(SessionError):
            next(stream)

    def test_input_graph_never_mutated(self):
        graph = _graph()
        edges_before = sorted(graph.edges())
        list(api.detect_stream(graph, UPDATES, SPEC))
        assert sorted(graph.edges()) == edges_before

    def test_multilevel_stream_warm_starts(self):
        graph, _ = ring_of_cliques(4, 5)
        spec = {
            "detector": "multilevel",
            "detector_config": {"config": {"threshold": 8}},
            "solver": "greedy",
            "solver_config": {"n_restarts": 2},
            "n_communities": 4,
            "seed": 3,
        }
        artifacts = list(api.detect_stream(graph, UPDATES, spec))
        assert artifacts[1].result.metadata["warm_start"] is True
        repeat = list(api.detect_stream(graph, UPDATES, spec))
        assert _labels(artifacts) == _labels(repeat)


class TestWarmStartSupport:
    def test_signature_probe(self):
        from repro.api.runner import _supports_warm_start

        class WithWarm:
            def detect(self, graph, n_communities, initial_partition=None):
                raise NotImplementedError

        class Without:
            def detect(self, graph, n_communities):
                raise NotImplementedError

        assert _supports_warm_start(WithWarm())
        assert not _supports_warm_start(Without())

    def test_detectors_accept_initial_partition(self):
        """Every registered QUBO detector takes the warm-start knob."""
        import inspect

        from repro.api import DETECTORS

        for name in ("direct", "multilevel", "qhd", "adaptive"):
            cls = DETECTORS.get(name)
            params = inspect.signature(cls.detect).parameters
            assert "initial_partition" in params, name

    def test_warm_start_on_identical_graph_is_selected(self):
        """Re-detecting with the previous answer keeps or beats it."""
        graph = _graph()
        cold = api.detect(graph, SPEC)
        detector = api.build_detector(api.RunSpec.from_dict(SPEC))
        warm = detector.detect(
            graph, 3, initial_partition=cold.result.labels
        )
        assert warm.metadata["warm_start"] is True
        assert warm.modularity >= cold.result.modularity

    def test_invalid_initial_partition_rejected(self):
        from repro.exceptions import PartitionError

        graph = _graph()
        detector = api.build_detector(api.RunSpec.from_dict(SPEC))
        with pytest.raises(PartitionError):
            detector.detect(
                graph, 3, initial_partition=np.zeros(3, dtype=np.int64)
            )
        with pytest.raises(PartitionError):
            detector.detect(
                graph,
                3,
                initial_partition=np.full(graph.n_nodes, -1),
            )

    def test_cold_path_unchanged_by_warm_start_kwarg(self):
        """No initial_partition -> byte-identical historical behaviour."""
        graph = _graph()
        a = api.detect(graph, SPEC)
        b = api.detect(graph, SPEC)
        assert a.result.labels.tolist() == b.result.labels.tolist()
        assert "warm_start" not in a.result.metadata


def frozen_track(self, labels):
    """``_WarmModelState.track`` as a walk of single flips to ``labels``.

    Frozen copy: the first in-range partition anchors a fresh
    :class:`FlipDeltaState`; every later one is reached by flipping,
    one bit at a time, each variable where the tracked assignment
    differs from the target's one-hot encoding.
    """
    from repro.qubo import FlipDeltaState, labels_to_one_hot

    arr = np.asarray(labels)
    if arr.size and (int(arr.min()) < 0 or int(arr.max()) >= self._k):
        self._state = None
        return
    target = labels_to_one_hot(arr, self._k)
    if self._state is None:
        self._state = FlipDeltaState(self._qubo.model, target)
        return
    for index in np.nonzero(self._state.x != target)[0].tolist():
        self._state.flip(int(index))


def _sparse_stream_case():
    """LFR n=300 at k=8 (2,400 variables) and six mixed event batches."""
    from repro.graphs import lfr_graph

    graph = lfr_graph(300, mixing=0.2, seed=11)[0]
    rng = np.random.default_rng(5)
    batches = []
    current = graph
    for _ in range(6):
        edge_u, edge_v, _ = current.edge_arrays()
        picks = rng.choice(edge_u.size, size=6, replace=False)
        batch = [
            ("delete", int(edge_u[i]), int(edge_v[i])) for i in picks[:3]
        ]
        batch += [
            ("reweight", int(edge_u[i]), int(edge_v[i]),
             float(rng.uniform(0.5, 2.0)))
            for i in picks[3:]
        ]
        batch += [
            ("insert", int(a), int(b), float(rng.uniform(0.5, 2.0)))
            for a, b in rng.integers(0, 300, size=(4, 2))
        ]
        batches.append(batch)
        current, _ = current.apply_updates(batch)
    spec = {"solver": "greedy", "n_communities": 8, "seed": 0}
    return graph, batches, spec


class TestLabelTracking:
    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_stream_matches_frozen_flip_walk(self, backend, monkeypatch):
        """Re-anchoring the tracked state changes no batch's answer."""
        from repro.api.stream import _WarmModelState
        from repro.qubo import build_community_qubo

        if backend == "dense":
            graph, batches, spec = _graph(), UPDATES, SPEC
        else:
            graph, batches, spec = _sparse_stream_case()
        k = spec["n_communities"]
        assert build_community_qubo(graph, k).backend == backend

        # The warm candidates are recorded too: where the cold solve
        # wins every batch, they are the only output the tracked state
        # reaches.
        original_warm_labels = _WarmModelState.warm_labels

        def run():
            candidates = []

            def recording(self, current):
                labels = original_warm_labels(self, current)
                candidates.append(None if labels is None else labels.tolist())
                return labels

            monkeypatch.setattr(_WarmModelState, "warm_labels", recording)
            artifacts = list(api.detect_stream(graph, batches, spec))
            return candidates, [
                (
                    a.result.labels.tolist(),
                    a.result.modularity,
                    a.result.metadata.get("warm_selected"),
                )
                for a in artifacts
            ]

        got = run()
        monkeypatch.setattr(_WarmModelState, "track", frozen_track)
        want = run()
        assert len(got[1]) == len(batches)
        assert got == want
        assert all(labels is not None for labels in got[0][1:])
        if backend == "sparse":
            assert any(selected for _, _, selected in got[1])

    def test_out_of_range_labels_restart_trajectory(self):
        """Detectors emitting labels >= k cannot be one-hot tracked."""
        from repro.api.stream import _WarmModelState

        graph = Graph(4, [(0, 1), (1, 2), (2, 3)])
        state = _WarmModelState(graph, 2)
        state.track(np.array([0, 1, 0, 1]))
        assert state._state is not None
        state.track(np.array([0, 5, 0, 1]))
        assert state._state is None
        assert state.warm_labels(graph) is None


class TestAbandonedStreamTeardown:
    """Bugfix: abandoning a stream releases its warm state."""

    def test_break_mid_stream_releases_warm_state(self):
        from repro.api.stream import _WarmModelState

        captured = {}
        original_init = _WarmModelState.__init__

        def spying_init(self, graph, n_communities):
            original_init(self, graph, n_communities)
            captured["state"] = self

        _WarmModelState.__init__ = spying_init
        try:
            stream = api.detect_stream(_graph(), UPDATES, SPEC)
            next(stream)  # consume one batch, then abandon
            stream.close()
        finally:
            _WarmModelState.__init__ = original_init
        state = captured["state"]
        assert state._qubo is None
        assert state._patcher is None
        assert state._state is None

    def test_exhausted_stream_releases_warm_state(self):
        from repro.api.stream import _WarmModelState

        captured = {}
        original_init = _WarmModelState.__init__

        def spying_init(self, graph, n_communities):
            original_init(self, graph, n_communities)
            captured["state"] = self

        _WarmModelState.__init__ = spying_init
        try:
            artifacts = list(api.detect_stream(_graph(), UPDATES, SPEC))
        finally:
            _WarmModelState.__init__ = original_init
        assert len(artifacts) == len(UPDATES)
        state = captured["state"]
        assert state._qubo is None and state._patcher is None

    def test_abandoned_stream_leaves_session_usable(self):
        import os

        has_dev_shm = os.path.isdir("/dev/shm")
        before = set(os.listdir("/dev/shm")) if has_dev_shm else set()
        with Session(max_workers=2) as session:
            stream = session.detect_stream(_graph(), UPDATES, SPEC)
            next(stream)
            stream.close()
            # The session survives its stream being abandoned: a
            # follow-up batch runs normally on the same executor.
            follow_up = session.detect_batch([_graph()] * 2, SPEC)
            assert len(follow_up) == 2
        if has_dev_shm:
            assert set(os.listdir("/dev/shm")) == before

    def test_generator_exit_on_garbage_collection(self):
        """A dropped reference triggers the same finally teardown."""
        from repro.api.stream import _WarmModelState

        captured = {}
        original_init = _WarmModelState.__init__

        def spying_init(self, graph, n_communities):
            original_init(self, graph, n_communities)
            captured["state"] = self

        _WarmModelState.__init__ = spying_init
        try:
            stream = api.detect_stream(_graph(), UPDATES, SPEC)
            next(stream)
            del stream  # CPython: refcount -> GeneratorExit -> finally
        finally:
            _WarmModelState.__init__ = original_init
        assert captured["state"]._qubo is None
