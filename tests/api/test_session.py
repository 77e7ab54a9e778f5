"""Session runtime contracts: reuse, determinism, concurrency safety."""

from __future__ import annotations

import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro.api as api
from repro.api import runner, threads
from repro.api.session import Session, SessionError, default_session
from repro.graphs.generators import ring_of_cliques
from repro.qubo.random_instances import random_qubo

QHD_SPEC = {
    "detector": "qhd",
    "solver": "qhd",
    "solver_config": {"n_samples": 4, "grid_points": 8, "n_steps": 15},
    "n_communities": 3,
    "seed": 7,
}


def _fresh_artifact(graph, spec):
    """Ground truth: one freshly built pipeline, outside any session."""
    return runner._detect_one(graph, runner._spec_of(spec), 0)


class TestSessionLifecycle:
    def test_context_manager_closes(self):
        with Session() as session:
            assert not session.closed
        assert session.closed

    def test_close_is_idempotent_and_final(self, clique_ring):
        graph, _ = clique_ring
        session = Session()
        session.detect(graph, QHD_SPEC)
        session.close()
        session.close()
        with pytest.raises(SessionError, match="closed"):
            session.detect(graph, QHD_SPEC)
        with pytest.raises(SessionError, match="closed"):
            session.detect_batch([graph], QHD_SPEC)

    def test_invalid_width_rejected(self):
        with pytest.raises(SessionError, match="max_workers"):
            Session(max_workers=0)

    def test_stats_shape(self, clique_ring):
        graph, _ = clique_ring
        with Session() as session:
            session.detect(graph, QHD_SPEC)
            stats = session.stats()
        assert stats["runs"] == 1
        assert set(stats) == {
            "runs", "clamped_calls", "worker_restarts", "max_workers",
            "executor", "blas_threads", "wire",
        }
        assert stats["worker_restarts"] == 0
        # Process tasks carry their inputs pickled by the executor.
        assert stats["wire"] == {"mode": "pickle"}
        # The process's count, read back through the shim.
        assert stats["blas_threads"] == threads.blas_threads()

    def test_default_session_is_shared_and_replaced_after_close(self):
        first = default_session()
        assert default_session() is first
        first.close()
        second = default_session()
        assert second is not first and not second.closed


class TestSessionDeterminism:
    def test_repeated_detect_identical(self, clique_ring):
        graph, _ = clique_ring
        fresh = _fresh_artifact(graph, QHD_SPEC)
        with Session() as session:
            first = session.detect(graph, QHD_SPEC)
            second = session.detect(graph, QHD_SPEC)
        for artifact in (first, second):
            np.testing.assert_array_equal(
                artifact.result.labels, fresh.result.labels
            )
            assert artifact.result.modularity == fresh.result.modularity
            assert (
                artifact.result.solve_result.energy
                == fresh.result.solve_result.energy
            )

    def test_detect_batch_equals_singles(self):
        graphs = [ring_of_cliques(3, 4)[0] for _ in range(4)]
        expected = [_fresh_artifact(g, QHD_SPEC) for g in graphs]
        with Session() as session:
            got = session.detect_batch(graphs, QHD_SPEC, max_workers=4)
        assert [a.index for a in got] == [0, 1, 2, 3]
        for want, have in zip(expected, got):
            np.testing.assert_array_equal(
                want.result.labels, have.result.labels
            )

    def test_solve_batch_equals_singles(self):
        models = [random_qubo(8, 0.4, seed=i) for i in range(4)]
        spec = {
            "solver": "qhd",
            "solver_config": {
                "n_samples": 4, "grid_points": 8, "n_steps": 15,
            },
            "seed": 3,
        }
        with Session() as session:
            batch = session.solve_batch(models, spec, max_workers=2)
            singles = [session.solve(m, spec) for m in models]
        for one, many in zip(singles, batch):
            assert one.result.energy == many.result.energy
            np.testing.assert_array_equal(one.result.x, many.result.x)

    def test_module_verbs_delegate_to_default_session(self, clique_ring):
        graph, _ = clique_ring
        session = default_session()
        before = session.stats()["runs"]
        artifact = api.detect(graph, QHD_SPEC)
        assert default_session().stats()["runs"] == before + 1
        fresh = _fresh_artifact(graph, QHD_SPEC)
        np.testing.assert_array_equal(
            artifact.result.labels, fresh.result.labels
        )


class TestSessionConcurrency:
    """Hammer one session from N threads with mixed-shape specs."""

    def _jobs(self):
        jobs = []
        # Mixed run shapes (grid/steps/variable-count all vary) with
        # same-shape repeats, all in flight on one session at once.
        for index in range(4):
            graph, _ = ring_of_cliques(3, 4 + (index % 2))
            jobs.append((graph, QHD_SPEC))
        wide = {
            **QHD_SPEC,
            "solver_config": {
                "n_samples": 4, "grid_points": 16, "n_steps": 10,
            },
            "n_communities": 2,
        }
        for index in range(4):
            graph, _ = ring_of_cliques(2, 5 + (index % 2))
            jobs.append((graph, wide))
        return jobs

    def test_hammered_session_matches_sequential_fresh_runs(self):
        jobs = self._jobs()
        expected = [_fresh_artifact(graph, spec) for graph, spec in jobs]
        with Session() as session:
            barrier = threading.Barrier(8)

            def run(job):
                barrier.wait()  # release all threads at once
                graph, spec = job
                return session.detect(graph, spec)

            with ThreadPoolExecutor(max_workers=8) as executor:
                got = list(executor.map(run, jobs))
            stats = session.stats()

        assert stats["runs"] == len(jobs)
        for want, have in zip(expected, got):
            np.testing.assert_array_equal(
                want.result.labels, have.result.labels
            )
            assert want.result.modularity == have.result.modularity
            assert (
                want.result.solve_result.energy
                == have.result.solve_result.energy
            )
            np.testing.assert_array_equal(
                want.result.solve_result.x, have.result.solve_result.x
            )

    def test_hammered_batches_match_fresh_runs(self):
        graphs = [ring_of_cliques(3, 4)[0] for _ in range(6)]
        expected = [_fresh_artifact(g, QHD_SPEC) for g in graphs]
        with Session(max_workers=4) as session:
            for _ in range(3):  # repeated batches on one warm executor
                got = session.detect_batch(graphs, QHD_SPEC)
                for want, have in zip(expected, got):
                    np.testing.assert_array_equal(
                        want.result.labels, have.result.labels
                    )
            stats = session.stats()
        assert stats["runs"] == 18


class TestSubmit:
    """``Session.submit``: the Future-returning single-run surface."""

    def test_submit_matches_detect(self, clique_ring):
        graph, _ = clique_ring
        fresh = _fresh_artifact(graph, QHD_SPEC)
        with Session() as session:
            artifact = session.submit(graph, QHD_SPEC).result()
        np.testing.assert_array_equal(
            artifact.result.labels, fresh.result.labels
        )
        assert (
            artifact.result.solve_result.energy
            == fresh.result.solve_result.energy
        )

    def test_submit_infers_kind(self, clique_ring):
        graph, _ = clique_ring
        model = random_qubo(8, 0.4, seed=1)
        spec = {"solver": "greedy", "n_communities": 3, "seed": 0}
        with Session() as session:
            detect = session.submit(graph, spec).result()
            solve = session.submit(
                model, {"solver": "greedy", "seed": 0}
            ).result()
        assert detect.result.labels.shape == (graph.n_nodes,)
        assert solve.result.x.shape == (8,)

    def test_submit_rejects_bad_kind(self, clique_ring):
        graph, _ = clique_ring
        with Session() as session:
            with pytest.raises(SessionError, match="kind"):
                session.submit(graph, QHD_SPEC, kind="stream")

    def test_submit_after_close_raises(self, clique_ring):
        graph, _ = clique_ring
        session = Session()
        session.close()
        with pytest.raises(SessionError, match="closed"):
            session.submit(graph, QHD_SPEC)

    def test_concurrent_submits_count_runs(self, clique_ring):
        graph, _ = clique_ring
        with Session(max_workers=2) as session:
            futures = [
                session.submit(graph, QHD_SPEC) for _ in range(4)
            ]
            artifacts = [f.result() for f in futures]
            assert session.stats()["runs"] == 4
        reference = artifacts[0].result.labels
        for artifact in artifacts[1:]:
            np.testing.assert_array_equal(
                artifact.result.labels, reference
            )

    def test_process_backend_submit_ships_arrays(self, clique_ring):
        graph, _ = clique_ring
        fresh = _fresh_artifact(graph, QHD_SPEC)
        with Session(executor="process", max_workers=2) as session:
            artifact = session.submit(graph, QHD_SPEC).result()
            stats = session.stats()
        np.testing.assert_array_equal(
            artifact.result.labels, fresh.result.labels
        )
        assert stats["runs"] == 1

    def test_close_returns_in_flight_process_submits(self, clique_ring):
        # close() shuts the forwarding thread down before the process
        # pool it forwards to, so a submit still queued behind another
        # one when close() is called lands too.
        graph, _ = clique_ring
        fresh = _fresh_artifact(graph, QHD_SPEC)
        session = Session(executor="process", max_workers=1)
        futures = [session.submit(graph, QHD_SPEC) for _ in range(2)]
        session.close()
        for future in futures:
            np.testing.assert_array_equal(
                future.result(timeout=120).result.labels,
                fresh.result.labels,
            )

    def test_submits_and_batches_share_the_slots(self, monkeypatch):
        """At most ``max_workers`` runs overlap across both verbs."""
        lock = threading.Lock()
        running = [0]
        peak = [0]
        original = runner._detect_one

        def counted(*args, **kwargs):
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            try:
                time.sleep(0.05)
                return original(*args, **kwargs)
            finally:
                with lock:
                    running[0] -= 1

        monkeypatch.setattr(runner, "_detect_one", counted)
        graph = ring_of_cliques(3, 4)[0]
        spec = {"solver": "greedy", "n_communities": 3, "seed": 0}
        with Session(executor="thread", max_workers=2) as session:
            futures = [session.submit(graph, spec) for _ in range(3)]
            with ThreadPoolExecutor(max_workers=1) as caller:
                batch = caller.submit(
                    session.detect_batch, [graph] * 4, spec
                ).result(timeout=60)
            singles = [future.result(timeout=60) for future in futures]
        assert len(batch) == 4 and len(singles) == 3
        assert peak[0] <= 2


class TestClampWarnOnce:
    """Bugfix: the width clamp warns once, not per call."""

    def test_warns_once_per_width_and_counts(self):
        graphs = [ring_of_cliques(3, 4)[0] for _ in range(2)]
        spec = {"solver": "greedy", "n_communities": 3, "seed": 0}
        with Session(max_workers=1) as session:
            with pytest.warns(RuntimeWarning, match="clamping"):
                session.detect_batch(graphs, spec, max_workers=5)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                session.detect_batch(graphs, spec, max_workers=5)
            assert session.stats()["clamped_calls"] == 2
            # A different oversized width warns once more.
            with pytest.warns(RuntimeWarning, match="clamping"):
                session.detect_batch(graphs, spec, max_workers=7)
            assert session.stats()["clamped_calls"] == 3

    def test_in_range_widths_never_counted(self):
        graphs = [ring_of_cliques(3, 4)[0] for _ in range(2)]
        spec = {"solver": "greedy", "n_communities": 3, "seed": 0}
        with Session(max_workers=2) as session:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                session.detect_batch(graphs, spec, max_workers=1)
                session.detect_batch(graphs, spec)
            assert session.stats()["clamped_calls"] == 0


class TestDefaultSessionShutdownLatch:
    """Bugfix: no zombie default session after the atexit hook ran."""

    def test_manual_close_still_rebuilds(self):
        from repro.api.session import _close_default_session

        first = default_session()
        _close_default_session()
        second = default_session()
        assert second is not first and not second.closed

    def test_after_atexit_hook_refuses_to_rebuild(self, clique_ring):
        from repro.api import session as session_module

        graph, _ = clique_ring
        assert not session_module._default_shutdown
        try:
            session_module._shutdown_default_session()
            assert session_module._default_shutdown
            with pytest.raises(SessionError, match="interpreter exit"):
                default_session()
            # The facade verbs route through default_session(), so a
            # teardown-time facade call fails loudly instead of
            # leaking a fresh executor-owning session.
            spec = {"solver": "greedy", "n_communities": 3, "seed": 0}
            with pytest.raises(SessionError, match="interpreter exit"):
                api.detect(graph, spec)
        finally:
            session_module._default_shutdown = False
        # Back out of the simulated teardown: rebuild works again.
        assert not default_session().closed

    def test_shutdown_hook_is_idempotent(self):
        from repro.api import session as session_module

        try:
            session_module._shutdown_default_session()
            session_module._shutdown_default_session()
            assert session_module._default_session is None
        finally:
            session_module._default_shutdown = False
