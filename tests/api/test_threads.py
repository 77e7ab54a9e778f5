"""The Session's thread budget, read back through the OpenBLAS shim.

When a session builds a pool that runs work concurrently it sets every
loaded OpenBLAS to ``max(1, cores // max_workers)`` threads, never above
the count OpenBLAS started with, and each process worker applies the
same count, so executor width × BLAS threads never exceeds the cores.
Single runs leave the count alone.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.api import threads
from repro.api.session import Session
from repro.graphs.generators import ring_of_cliques

CORES = threads.available_cores()
SPEC = {"solver": "greedy", "n_communities": 3, "seed": 0}


@pytest.fixture
def start():
    """The count OpenBLAS started with; restores the count found."""
    before = threads.blas_threads()
    if before is None:
        pytest.skip("no OpenBLAS loaded in this process")
    try:
        yield max(start for _, _, start in threads._controls())
    finally:
        threads.set_blas_threads(before)


@pytest.fixture(scope="module")
def graph():
    return ring_of_cliques(3, 5)[0]


def test_every_mapped_openblas_is_driven():
    # An OpenBLAS build whose symbols the shim does not know fails here
    # instead of silently skipping the budget tests below.
    paths = threads._mapped_openblas()
    if not paths:
        pytest.skip("no OpenBLAS mapped into this process")
    assert [path for path in paths if threads._control(path) is None] == []


def test_thread_batch_divides_the_cores(start, graph):
    threads.set_blas_threads(CORES)
    with Session(executor="thread", max_workers=2) as session:
        assert threads.blas_threads() == min(CORES, start)
        session.detect_batch([graph, graph], SPEC)
        budget = min(max(1, CORES // 2), start)
        assert threads.blas_threads() == budget
        assert session.stats()["blas_threads"] == budget


def test_every_process_worker_gets_the_budget(start, graph):
    with Session(executor="process", max_workers=2) as session:
        # Workers fork from a parent at every core, so their count can
        # only come from the initializer.
        threads.set_blas_threads(CORES)
        executor = session._ensure_process_executor()
        futures = [executor.submit(threads.blas_threads) for _ in range(6)]
        counts = {future.result(timeout=60) for future in futures}
        # A submit builds the thread pool that forwards to the workers.
        session.submit(graph, SPEC).result(timeout=60)
        # The parent only waits on its workers and keeps its count.
        assert threads.blas_threads() == min(CORES, start)
    assert counts == {min(max(1, CORES // 2), start)}


def test_single_runs_leave_the_count_alone(start, graph):
    threads.set_blas_threads(CORES)
    with Session() as session:
        session.detect(graph, SPEC)
        session.detect_batch([graph], SPEC)
        session.detect_batch([graph, graph], SPEC, max_workers=1)
        assert threads.blas_threads() == min(CORES, start)


def test_single_worker_session_gets_every_core(start, graph):
    threads.set_blas_threads(1)
    with Session(max_workers=1) as session:
        session.submit(graph, SPEC).result(timeout=60)
        assert threads.blas_threads() == min(CORES, start)
    # Process-wide and not restored on close.
    assert threads.blas_threads() == min(CORES, start)


def test_cores_come_from_the_affinity_mask(start, graph, monkeypatch):
    if not hasattr(os, "sched_getaffinity"):
        pytest.skip("no affinity mask on this platform")
    threads.set_blas_threads(CORES)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert threads.available_cores() == 1
    with Session(executor="auto", max_workers=1) as session:
        assert session.executor_backend == "thread"
        session.submit(graph, SPEC).result(timeout=60)
        assert threads.blas_threads() == 1
    with Session() as session:
        assert session.max_workers == 1


def test_openblas_variable_caps_the_budget(start):
    code = (
        "from repro.api import Session, threads\n"
        "from repro.graphs.generators import ring_of_cliques\n"
        "graph = ring_of_cliques(3, 5)[0]\n"
        "spec = {'solver': 'greedy', 'n_communities': 3, 'seed': 0}\n"
        "with Session(max_workers=1) as session:\n"
        "    session.submit(graph, spec).result(timeout=60)\n"
        "    print(threads.blas_threads())\n"
    )
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1"]
