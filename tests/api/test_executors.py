"""Executor-equivalence contracts of the session batch runtime.

The batch contract is backend-independent: a batch run through any
executor (inline sequential loop, persistent thread pool, persistent
process pool) must reproduce the corresponding sequence of seeded
single runs **field by field** — labels, energies, spec echo, seeds,
indices — for any worker count and chunking.  These tests pin that
equivalence with the golden harness's structural differ, plus the
process-mode plumbing around it: clamp-and-warn width resolution,
mid-batch worker failures, a killed worker process, executor config
round-trips and the atexit default-session hook.
"""

from __future__ import annotations

import atexit
import os
import signal
import warnings
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import repro.api as api
from repro.api import runner, session as session_module
from repro.api.config import ConfigError
from repro.api.session import Session, SessionError, default_session
from repro.api.threads import available_cores
from repro.graphs.generators import ring_of_cliques
from repro.qubo import build_community_qubo
from repro.qubo.random_instances import random_qubo
from test_golden import _diff

QHD_SPEC = {
    "detector": "qhd",
    "solver": "qhd",
    "solver_config": {"n_samples": 4, "grid_points": 8, "n_steps": 15},
    "n_communities": 3,
    "seed": 7,
}

SOLVE_SPEC = {
    "solver": "simulated-annealing",
    "solver_config": {"n_sweeps": 40, "n_restarts": 2},
    "seed": 3,
}

#: Per-run timings are wall clock and never reproducible.
VOLATILE_KEYS = frozenset({"timings", "wall_time"})


def _scrub(value):
    """Strip timing fields from a jsonable artifact tree."""
    if isinstance(value, dict):
        return {
            key: _scrub(item)
            for key, item in value.items()
            if key not in VOLATILE_KEYS
        }
    if isinstance(value, list):
        return [_scrub(item) for item in value]
    return value


def _assert_artifacts_identical(expected, got):
    """Field-by-field artifact comparison via the golden differ."""
    assert len(expected) == len(got)
    for want, have in zip(expected, got):
        diffs: list[str] = []
        _diff(
            _scrub(want.to_dict()), _scrub(have.to_dict()), "artifact", diffs
        )
        assert not diffs, "\n".join(diffs)


def _shm_entries() -> set:
    """The ``/dev/shm`` entry set (empty where the platform has none)."""
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


def _graphs(count=5):
    # Two graph sizes in one batch so chunks mix QUBO shapes.
    return [ring_of_cliques(3, 4 + (i % 2))[0] for i in range(count)]


@pytest.mark.parametrize("executor", ["thread", "process"])
@pytest.mark.parametrize("max_workers", [1, 2, 3])
class TestDetectBatchEquivalence:
    def test_matches_sequential_fresh_runs(self, executor, max_workers):
        graphs = _graphs()
        expected = [
            runner._detect_one(g, runner._spec_of(QHD_SPEC), i)
            for i, g in enumerate(graphs)
        ]
        with Session(max_workers=3, executor=executor) as session:
            got = session.detect_batch(
                graphs, QHD_SPEC, max_workers=max_workers
            )
        _assert_artifacts_identical(expected, got)


@pytest.mark.parametrize("executor", ["thread", "process"])
class TestSolveBatchEquivalence:
    def test_dense_models(self, executor):
        models = [random_qubo(10, 0.4, seed=i) for i in range(4)]
        expected = [
            runner._solve_one(m, runner._spec_of(SOLVE_SPEC), i)
            for i, m in enumerate(models)
        ]
        with Session(max_workers=2, executor=executor) as session:
            got = session.solve_batch(models, SOLVE_SPEC)
        _assert_artifacts_identical(expected, got)

    def test_sparse_factor_models(self, executor):
        graph, _ = ring_of_cliques(3, 5)
        model = build_community_qubo(
            graph, n_communities=3, backend="sparse"
        ).model
        assert model.n_factors > 0  # factor-backed models ship too
        models = [model] * 3
        expected = [
            runner._solve_one(m, runner._spec_of(SOLVE_SPEC), i)
            for i, m in enumerate(models)
        ]
        with Session(max_workers=2, executor=executor) as session:
            got = session.solve_batch(models, SOLVE_SPEC)
        _assert_artifacts_identical(expected, got)


class TestProcessRuntime:
    def test_chunking_is_invisible(self):
        """Different widths shard differently; results cannot differ."""
        graphs = _graphs(7)
        with Session(max_workers=3, executor="process") as session:
            wide = session.detect_batch(graphs, QHD_SPEC)
            narrow = session.detect_batch(graphs, QHD_SPEC, max_workers=2)
        _assert_artifacts_identical(wide, narrow)

    def test_worker_exception_mid_batch(self):
        """A failing item raises; the session and /dev/shm stay clean."""
        graphs = [ring_of_cliques(3, 4)[0] for _ in range(5)]
        specs = [dict(QHD_SPEC) for _ in range(5)]
        specs[2] = dict(QHD_SPEC, solver="no-such-solver")
        before = _shm_entries()
        with Session(executor="process", max_workers=2) as session:
            with pytest.raises(Exception, match="no-such-solver"):
                session.detect_batch(graphs, specs)
            follow_up = session.detect_batch(graphs[:2], QHD_SPEC)
            assert len(follow_up) == 2
        assert _shm_entries() == before

    def test_killed_worker_does_not_poison_the_session(self):
        """One SIGKILLed worker fails at most one call, then a fresh pool."""
        graphs = _graphs(3)
        expected = [
            runner._detect_one(g, runner._spec_of(QHD_SPEC), i)
            for i, g in enumerate(graphs)
        ]
        with Session(executor="process", max_workers=2) as session:
            session.detect_batch(graphs, QHD_SPEC)
            assert session.stats()["worker_restarts"] == 0
            victim = next(iter(session._process_executor._processes))
            os.kill(victim, signal.SIGKILL)
            calls = [lambda: session.detect_batch(graphs, QHD_SPEC)] * 3 + [
                lambda: session.submit(graphs[0], QHD_SPEC).result(120)
            ]
            failures = 0
            for call in calls:
                try:
                    call()
                except BrokenProcessPool:
                    failures += 1
            assert failures <= 1
            # The broken pool was swapped out once, however many calls
            # saw it fail.
            assert session.stats()["worker_restarts"] == 1
            got = session.detect_batch(graphs, QHD_SPEC)
        _assert_artifacts_identical(expected, got)

    def test_close_shuts_down_worker_processes(self):
        graphs = _graphs(3)
        session = Session(max_workers=2, executor="process")
        session.detect_batch(graphs, QHD_SPEC)
        executor = session._process_executor
        assert executor is not None
        session.close()
        assert session._process_executor is None
        with pytest.raises(RuntimeError):
            executor.submit(os.getpid)


class TestPerItemSpecs:
    """A spec list fans out per-item seeds/configs, order-preserving."""

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_matches_sequential_per_item_runs(self, executor):
        graphs = _graphs(4)
        specs = [dict(QHD_SPEC, seed=100 + i) for i in range(4)]
        expected = [
            runner._detect_one(g, runner._spec_of(s), i)
            for i, (g, s) in enumerate(zip(graphs, specs))
        ]
        with Session(max_workers=2, executor=executor) as session:
            got = session.detect_batch(graphs, specs)
        _assert_artifacts_identical(expected, got)

    def test_length_mismatch_rejected(self):
        graphs = _graphs(3)
        with Session(max_workers=2) as session:
            with pytest.raises(SessionError, match="entries"):
                session.detect_batch(graphs, [QHD_SPEC] * 2)


class TestWidthClamp:
    def test_wider_request_warns_and_clamps(self):
        graphs = _graphs(4)
        with Session(max_workers=2) as session:
            with pytest.warns(RuntimeWarning, match="clamping"):
                got = session.detect_batch(graphs, QHD_SPEC, max_workers=9)
        expected = [
            runner._detect_one(g, runner._spec_of(QHD_SPEC), i)
            for i, g in enumerate(graphs)
        ]
        _assert_artifacts_identical(expected, got)

    def test_narrower_request_does_not_warn(self):
        graphs = _graphs(3)
        with Session(max_workers=3) as session:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                session.detect_batch(graphs, QHD_SPEC, max_workers=2)


class TestExecutorConfig:
    def test_invalid_executor_rejected(self):
        with pytest.raises(SessionError, match="executor"):
            Session(executor="fibers")

    def test_only_width_and_executor_are_options(self):
        assert Session.config_fields() == ("max_workers", "executor")

    @pytest.mark.parametrize(
        "key, value",
        [("pooling", False), ("max_idle_engines", 4), ("wire", "shm")],
    )
    def test_removed_options_rejected(self, key, value):
        # Saved configs that still carry a deleted option fail loudly.
        with pytest.raises(ConfigError, match=key):
            Session.from_config({key: value})

    @pytest.mark.parametrize("executor", ["thread", "process", "auto"])
    def test_executor_round_trips(self, executor):
        config = Session(max_workers=2, executor=executor).to_config()
        assert config["executor"] == executor
        assert Session.from_config(config).to_config() == config

    def test_auto_resolves_by_core_count(self):
        resolved = Session(executor="auto").executor_backend
        expected = "process" if available_cores() > 1 else "thread"
        assert resolved == expected

    def test_stats_reports_backend(self):
        with Session(executor="process") as session:
            assert session.stats()["executor"] == "process"
        with Session(executor="thread") as session:
            assert session.stats()["executor"] == "thread"


class TestDefaultSessionAtexit:
    def test_atexit_hook_is_registered(self):
        # atexit has no public introspection; the hook must at least be
        # importable and idempotent.
        assert callable(session_module._close_default_session)

    def test_close_hook_closes_and_detaches(self):
        current = default_session()
        assert not current.closed
        session_module._close_default_session()
        assert current.closed
        # Idempotent with no live session.
        session_module._close_default_session()
        replacement = default_session()
        assert replacement is not current and not replacement.closed

    def test_unregister_then_register_round_trip(self):
        # Guard against the hook being registered with arguments that
        # would make interpreter shutdown raise.
        atexit.unregister(session_module._close_default_session)
        atexit.register(session_module._close_default_session)


class TestGraphWireFormat:
    def test_graph_round_trip_exact(self):
        from repro.graphs.graph import Graph

        graph, _ = ring_of_cliques(4, 5)
        clone = Graph.from_arrays(*graph.to_arrays())
        assert clone.n_nodes == graph.n_nodes
        for left, right in zip(clone.edge_arrays(), graph.edge_arrays()):
            np.testing.assert_array_equal(left, right)


@pytest.mark.parametrize("executor", ["thread", "process", "auto"])
class TestEmptyBatch:
    """An empty input list returns [] on every backend, touching nothing."""

    def test_detect_batch_empty(self, executor):
        with Session(max_workers=2, executor=executor) as session:
            assert session.detect_batch([], QHD_SPEC) == []
            assert session.detect_batch(iter(()), QHD_SPEC) == []
            # No executor was spun up and no run was counted.
            assert session._thread_executor is None
            assert session._process_executor is None
            assert session.stats()["runs"] == 0

    def test_solve_batch_empty(self, executor):
        with Session(max_workers=2, executor=executor) as session:
            assert session.solve_batch([], SOLVE_SPEC) == []
            assert session._thread_executor is None
            assert session._process_executor is None
            assert session.stats()["runs"] == 0


def test_module_level_empty_batches():
    assert api.detect_batch([], QHD_SPEC) == []
    assert api.solve_batch([], SOLVE_SPEC) == []
