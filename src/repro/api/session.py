"""Reusable run sessions: persistent worker executors.

A :class:`Session` is the service-shaped counterpart of the one-shot
:func:`repro.api.detect` / :func:`repro.api.solve` verbs.  It owns the
reusable runtime state:

* one persistent :class:`~concurrent.futures.ThreadPoolExecutor` of
  ``max_workers`` threads — on the default ``executor="thread"``
  backend it runs every batch fan-out and every :meth:`Session.submit`
  job, so at most ``max_workers`` runs execute at once;
* on ``executor="process"`` a persistent
  :class:`~concurrent.futures.ProcessPoolExecutor` as well, so CPU-bound
  work scales with cores instead of contending for one GIL: batches go
  straight to it, and the thread pool only forwards submitted runs.
  ``executor="auto"`` picks processes on multi-core machines;
* the process's BLAS thread budget — when the session first builds a
  pool that runs work in this process it sets every loaded OpenBLAS to
  ``max(1, cores // max_workers)`` threads (:mod:`repro.api.threads`),
  and process workers apply the same count, so executor width × BLAS
  threads never exceeds the cores.  Single runs leave the count alone.

Process tasks carry the graphs and QUBO models themselves, pickled by
the executor.  Batches are sharded into ``~4 × workers`` contiguous
chunks pulled from the executor's shared queue, so a straggling chunk
cannot serialise the tail; results are reassembled in input order.
A worker that dies (OOM kill, signal) breaks its pool: the call that
sees it raises :class:`~concurrent.futures.process.BrokenProcessPool`,
and the next call builds a fresh pool.

Determinism is unchanged by any of this: every run gets its own
freshly built, identically-seeded pipeline, so **batch ≡ sequence of
seeded single runs, bit-exact, for every executor and any chunking**
(pinned by ``tests/api/test_session.py`` and
``tests/api/test_executors.py``).

The module-level facade verbs delegate to a process-wide
:func:`default_session`, so plain ``api.detect_batch(...)`` calls
reuse its executors.  An :mod:`atexit` hook closes the
default session on interpreter exit, shutting down its executors (with
a process pool this is what reaps the worker processes).

Examples
--------
>>> import repro.api as api
>>> from repro.graphs import ring_of_cliques
>>> graphs = [ring_of_cliques(3, 5)[0] for _ in range(3)]
>>> spec = {"solver": "greedy", "n_communities": 3, "seed": 0}
>>> with api.Session() as session:
...     artifacts = session.detect_batch(graphs, spec, max_workers=2)
...     [a.index for a in artifacts]
[0, 1, 2]
"""

from __future__ import annotations

import atexit
import contextlib
import multiprocessing
import threading
import warnings
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from types import TracebackType
from typing import Any, Callable, Sequence

from repro.api import runner
from repro.api.config import Configurable
from repro.api.spec import RunArtifact, RunSpec
from repro.api.threads import available_cores, blas_threads, set_blas_threads
from repro.exceptions import ReproError

#: Batch fan-outs are sharded into up to this many chunks per worker.
#: More chunks than workers is what makes the shared submission queue a
#: work-stealing structure: a worker that finishes early pulls the next
#: chunk instead of idling behind a straggler.
CHUNKS_PER_WORKER = 4

_EXECUTORS = ("thread", "process", "auto")


class SessionError(ReproError):
    """Raised for invalid session usage (e.g. running after close)."""


def _mp_context() -> multiprocessing.context.BaseContext | None:
    """The multiprocessing context for worker pools (fork when available).

    Fork keeps worker start-up cheap and inherits the already-imported
    library; platforms without it (Windows, macOS spawn-default Pythons
    still expose fork=no) fall back to the platform default — every
    worker entry point is a module-level function with picklable
    arguments, so spawn works too, just with a slower first batch.
    """
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


class Session(Configurable):
    """A reusable run context whose executors persist across calls.

    Parameters
    ----------
    max_workers:
        Width of the session's persistent executor (and the default
        fan-out of :meth:`detect_batch` / :meth:`solve_batch`).
        ``None`` sizes it to ``min(8, cores)``, where ``cores`` counts
        the CPUs in the process's affinity mask.  Requests for a
        *wider* per-call fan-out are clamped to this width with a
        :class:`RuntimeWarning` (the executor is sized once per
        session); narrower requests are honoured exactly.  It is also
        the session's only thread setting: see "Thread budget" below.
    executor:
        ``"thread"`` (default) runs batches and :meth:`submit` jobs on
        the session's persistent thread pool; ``"process"`` runs them
        on a persistent process pool; ``"auto"`` resolves to
        ``"process"`` on multi-core machines and ``"thread"``
        otherwise.  Single :meth:`detect` / :meth:`solve` calls always
        run in-process — the knob only shapes fan-out, never results.

    Like every other knob in the library, the constructor parameters
    round-trip through :meth:`Configurable.to_config` /
    :meth:`Configurable.from_config`, so one JSON dict reproduces a
    configured session.

    Thread budget: runs that execute concurrently share the cores.
    When the session builds a pool that runs work in this process —
    its thread pool, on the thread backend — it sets every loaded
    OpenBLAS to
    ``max(1, cores // max_workers)`` threads, and each process worker
    applies the same count when it starts, so executor width × BLAS
    threads never exceeds the cores.  The count never rises above what
    OpenBLAS started with, so ``OPENBLAS_NUM_THREADS`` still caps it.
    Single :meth:`detect` / :meth:`solve` calls and width-1 batches
    build no pool and leave the count alone, so a lone run keeps every
    core unless a pool built earlier lowered it.  The count is
    process-wide — it also governs any other numpy/scipy code in the
    process — is set by the session that most recently built such a
    pool, and is not restored by :meth:`close`.
    ``stats()["blas_threads"]`` reads it back.

    Examples
    --------
    >>> import repro.api as api
    >>> from repro.graphs import ring_of_cliques
    >>> graph, _ = ring_of_cliques(3, 5)
    >>> session = api.Session()
    >>> spec = {"solver": "greedy", "n_communities": 3, "seed": 0}
    >>> a = session.detect(graph, spec)
    >>> b = session.detect(graph, spec)  # seeded: identical result
    >>> bool((a.result.labels == b.result.labels).all())
    True
    >>> session.close()
    >>> api.Session.from_config(
    ...     {"executor": "process", "max_workers": 2}).to_config()[
    ...     "executor"]
    'process'
    """

    # Every write to these outside __init__ must hold self._lock; the
    # REP005 invariant rule (repro.analysis) enforces the declaration.
    _locked_fields = (
        "_runs",
        "_clamped_calls",
        "_worker_restarts",
        "_closed",
        "_thread_executor",
        "_process_executor",
    )

    def __init__(
        self,
        max_workers: int | None = None,
        executor: str = "thread",
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise SessionError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        if executor not in _EXECUTORS:
            raise SessionError(
                f"executor must be one of {list(_EXECUTORS)}, "
                f"got {executor!r}"
            )
        cores = available_cores()
        self._max_workers = (
            min(8, cores) if max_workers is None else int(max_workers)
        )
        self._executor = executor
        self._backend = (
            ("process" if cores > 1 else "thread")
            if executor == "auto"
            else executor
        )
        self._blas_budget = max(1, cores // self._max_workers)
        self._thread_executor: ThreadPoolExecutor | None = None
        self._process_executor: ProcessPoolExecutor | None = None
        self._lock = threading.Lock()
        self._closed = False
        self._runs = 0
        self._clamped_calls = 0
        self._worker_restarts = 0
        self._clamp_warned: set[int] = set()

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    @property
    def max_workers(self) -> int:
        """Width of the persistent executor."""
        return self._max_workers

    @property
    def executor_backend(self) -> str:
        """The resolved batch backend: ``"thread"`` or ``"process"``."""
        return self._backend

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def stats(self) -> dict[str, Any]:
        """Run counters and the resolved backend (JSON-ready).

        ``blas_threads`` is the process's OpenBLAS thread count read
        back from the library (``None`` without OpenBLAS).  ``wire``
        names how process tasks carry their inputs: the executor
        pickles them.  ``worker_restarts`` counts the process pools a
        dead worker broke and the session replaced.
        """
        with self._lock:
            runs = self._runs
            clamped = self._clamped_calls
            restarts = self._worker_restarts
        return {
            "runs": runs,
            "clamped_calls": clamped,
            "worker_restarts": restarts,
            "max_workers": self._max_workers,
            "executor": self._backend,
            "blas_threads": blas_threads(),
            "wire": {"mode": "pickle"},
        }

    def close(self) -> None:
        """Shut the executors down (terminating any worker processes).

        Idempotent; further run calls raise :class:`SessionError`.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            thread_executor, self._thread_executor = (
                self._thread_executor, None,
            )
            process_executor, self._process_executor = (
                self._process_executor, None,
            )
        # The thread pool first: on the process backend its threads may
        # still be forwarding submitted runs to the process pool, so
        # that must outlive them.
        if thread_executor is not None:
            thread_executor.shutdown(wait=True)
        if process_executor is not None:
            process_executor.shutdown(wait=True)

    def __enter__(self) -> "Session":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else "open"
        return (
            f"Session(max_workers={self._max_workers}, "
            f"executor={self._backend!r}, {state})"
        )

    # ------------------------------------------------------------------
    # Run verbs
    # ------------------------------------------------------------------
    def detect(self, graph: Any, spec: Any) -> RunArtifact:
        """Run one detection spec on ``graph`` (see :func:`repro.api.detect`)."""
        self._check_open()
        artifact = runner._detect_one(graph, runner._spec_of(spec), 0)
        self._count(1)
        return artifact

    def solve(self, model: Any, spec: Any) -> RunArtifact:
        """Run one solve spec on ``model`` (see :func:`repro.api.solve`)."""
        self._check_open()
        artifact = runner._solve_one(model, runner._spec_of(spec), 0)
        self._count(1)
        return artifact

    def submit(
        self,
        item: Any,
        spec: Any,
        kind: str | None = None,
    ) -> "Future[RunArtifact]":
        """Submit one run and return its :class:`~concurrent.futures.Future`.

        The awaitable counterpart of :meth:`detect` / :meth:`solve` and
        the submission surface behind ``repro serve``: the call returns
        immediately with a ``Future[RunArtifact]`` while the run
        executes on the session's thread pool, which batches share, so
        at most ``max_workers`` runs execute at once; further work
        queues.  On the process backend the pool thread only forwards
        the run to the process pool as a single-item chunk, so CPU-bound
        submissions scale with cores exactly like batches.  asyncio code
        awaits the future through :func:`asyncio.wrap_future`.

        Parameters
        ----------
        item:
            A :class:`repro.graphs.Graph` (detection) or a QUBO model
            (solve).
        spec:
            The :class:`RunSpec` (or dict / JSON text) to run.
        kind:
            ``"detect"`` or ``"solve"``; ``None`` (default) infers it
            from ``item``'s type — graphs detect, everything else
            solves.

        Determinism is the single-run contract: a submitted seeded run
        is bit-identical to the corresponding :meth:`detect` /
        :meth:`solve` call.

        Examples
        --------
        >>> import repro.api as api
        >>> from repro.graphs import ring_of_cliques
        >>> graph, _ = ring_of_cliques(3, 5)
        >>> with api.Session() as session:
        ...     future = session.submit(
        ...         graph, {"solver": "greedy",
        ...                 "n_communities": 3, "seed": 0})
        ...     future.result().result.n_communities
        3
        """
        self._check_open()
        resolved = runner._spec_of(spec)
        if kind is None:
            from repro.graphs.graph import Graph

            kind = "detect" if isinstance(item, Graph) else "solve"
        if kind not in ("detect", "solve"):
            raise SessionError(
                f"kind must be 'detect' or 'solve', got {kind!r}"
            )
        # The process pool is resolved here, not on the pool thread, so
        # a close() racing this call still finds it alive.
        process = (
            self._ensure_process_executor()
            if self._backend == "process"
            else None
        )
        return self._ensure_thread_executor().submit(
            self._run_submitted, kind, item, resolved, process
        )

    def detect_stream(
        self,
        graph: Any,
        updates: Any,
        spec: Any,
        warm_start: bool = True,
    ) -> Any:
        """Stream detection over edge-event batches through this session.

        See :func:`repro.api.detect_stream` — every per-batch run is
        counted in this session's :meth:`stats`, and the incremental
        QUBO / flip-delta state stays warm across batches.
        """
        from repro.api.stream import detect_stream

        return detect_stream(
            graph, updates, spec, session=self, warm_start=warm_start
        )

    def detect_batch(
        self,
        graphs: Sequence[Any],
        spec: Any,
        max_workers: int | None = None,
    ) -> list[RunArtifact]:
        """Fan one detection spec over many graphs, order-preserving.

        Every graph gets its own freshly built, identically-seeded
        detector (batch ≡ sequence of single runs, bit-exact, for every
        executor and chunking).  ``spec`` may also be a
        list/tuple of specs aligned one-to-one with ``graphs`` —
        per-item seeds and configs for sweep drivers — with the same
        contract per item.  ``max_workers`` above the session's width
        is clamped to it with a warning; narrower requests are
        honoured exactly.
        """
        return self._run_batch("detect", graphs, spec, max_workers)

    def solve_batch(
        self,
        models: Sequence[Any],
        spec: Any,
        max_workers: int | None = None,
    ) -> list[RunArtifact]:
        """Fan one solve spec over many QUBO models, order-preserving.

        The solve-side counterpart of :meth:`detect_batch`: each model
        gets a freshly built, identically-seeded solver, so the batch
        reproduces the corresponding sequence of single :meth:`solve`
        calls for any worker count, executor backend and chunking.
        ``spec`` may be a list/tuple of specs aligned with ``models``.
        """
        return self._run_batch("solve", models, spec, max_workers)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise SessionError("session is closed")

    def _count(self, n: int) -> None:
        with self._lock:
            self._runs += n

    def _ensure_thread_executor(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._closed:
                raise SessionError("session is closed")
            if self._thread_executor is None:
                if self._backend == "thread":
                    # Runs execute on these threads; on the process
                    # backend they only wait on the workers.
                    set_blas_threads(self._blas_budget)
                self._thread_executor = ThreadPoolExecutor(
                    max_workers=self._max_workers,
                    thread_name_prefix="repro-session",
                )
            return self._thread_executor

    def _ensure_process_executor(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._closed:
                raise SessionError("session is closed")
            if self._process_executor is None:
                self._process_executor = ProcessPoolExecutor(
                    max_workers=self._max_workers,
                    mp_context=_mp_context(),
                    initializer=runner._worker_initializer,
                    initargs=(self._blas_budget,),
                )
            return self._process_executor

    def _drop_broken(self, executor: ProcessPoolExecutor) -> None:
        """Swap out a process pool a dead worker broke.

        The next call builds a fresh pool; the broken one is shut down
        without waiting, since its workers will never answer.  Only the
        call that swaps the pool out counts a restart, so several calls
        failing on one broken pool count once.
        """
        with self._lock:
            if self._process_executor is executor:
                self._process_executor = None
                self._worker_restarts += 1
        executor.shutdown(wait=False)

    def _run_submitted(
        self,
        kind: str,
        item: Any,
        spec: RunSpec,
        process: ProcessPoolExecutor | None,
    ) -> Any:
        """Thread-pool body of one :meth:`submit` job."""
        if process is None:
            run_one = (
                runner._detect_one if kind == "detect" else runner._solve_one
            )
            artifact = run_one(item, spec, 0)
        else:
            try:
                chunk_results, _ = process.submit(
                    runner._run_chunk, kind, spec.to_dict(), [(0, item)]
                ).result()
            except BrokenProcessPool:
                self._drop_broken(process)
                raise
            artifact = chunk_results[0][1]
        self._count(1)
        return artifact

    def _resolve_width(self, max_workers: int | None, n_inputs: int) -> int:
        """Clamp a per-call width request to the session's executor.

        The persistent executor is sized once per session, so a *wider*
        request cannot be honoured; mirroring ``build_solver``'s
        warn-don't-drop policy it is clamped to the session width with
        a :class:`RuntimeWarning` rather than silently ignored.
        Narrower requests are honoured exactly.  The warning fires
        **once per requested width** per session — a long-lived service
        issuing thousands of identical oversized requests must not
        flood its logs — while every clamp is tallied in
        ``stats()["clamped_calls"]``.
        """
        width = self._max_workers if max_workers is None else int(max_workers)
        if width > self._max_workers:
            with self._lock:
                self._clamped_calls += 1
                first_time = width not in self._clamp_warned
                if first_time:
                    self._clamp_warned.add(width)
            if first_time:
                warnings.warn(
                    f"max_workers={width} exceeds this session's executor "
                    f"width ({self._max_workers}); clamping to "
                    f"{self._max_workers}.  Build the session with "
                    f"Session(max_workers={width}) to get a wider executor "
                    f"(warning once; further clamps are counted in "
                    f"stats()['clamped_calls'])",
                    RuntimeWarning,
                    stacklevel=4,
                )
            width = self._max_workers
        return max(1, min(width, n_inputs or 1))

    def _resolve_specs(
        self, inputs: list[Any], spec: Any
    ) -> tuple[list[RunSpec], RunSpec | None]:
        """Normalise shared vs per-item specs for a batch.

        Returns ``(specs, shared)``: ``specs`` is always aligned
        one-to-one with ``inputs``; ``shared`` is the single spec when
        one was given (so a process task carries it once per chunk)
        and ``None`` for true per-item spec lists.
        """
        if isinstance(spec, (list, tuple)):
            specs = [runner._spec_of(entry) for entry in spec]
            if len(specs) != len(inputs):
                raise SessionError(
                    f"per-item spec sequence has {len(specs)} entries "
                    f"for {len(inputs)} inputs"
                )
            return specs, None
        shared = runner._spec_of(spec)
        return [shared] * len(inputs), shared

    def _run_batch(
        self,
        kind: str,
        inputs: Sequence[Any],
        spec: Any,
        max_workers: int | None,
    ) -> list:
        self._check_open()
        inputs = list(inputs)
        specs, shared = self._resolve_specs(inputs, spec)
        if not inputs:
            # Uniform empty-batch contract for every executor backend:
            # no executor spin-up, just [].
            return []
        width = self._resolve_width(max_workers, len(inputs))
        run_one = runner._detect_one if kind == "detect" else runner._solve_one
        if width <= 1 or len(inputs) <= 1:
            results = [
                run_one(item, specs[index], index)
                for index, item in enumerate(inputs)
            ]
        elif self._backend == "process":
            results = self._run_batch_processes(
                kind, inputs, specs, shared, width
            )
        else:
            results = self._run_batch_threads(run_one, inputs, specs, width)
        self._count(len(results))
        return results

    def _run_batch_threads(
        self,
        run_one: Callable[..., Any],
        inputs: list[Any],
        specs: list[RunSpec],
        width: int,
    ) -> list:
        """Thread fan-out over the persistent pool.

        A narrower per-call width is honoured with a semaphore bounding
        concurrent runs (determinism is unaffected either way — this
        only shapes throughput).
        """
        executor = self._ensure_thread_executor()
        gate = (
            threading.BoundedSemaphore(width)
            if width < self._max_workers
            else None
        )

        def task(item: Any, index: int) -> Any:
            if gate is None:
                return run_one(item, specs[index], index)
            with gate:
                return run_one(item, specs[index], index)

        futures = [
            executor.submit(task, item, index)
            for index, item in enumerate(inputs)
        ]
        return [future.result() for future in futures]

    def _run_batch_processes(
        self,
        kind: str,
        inputs: list[Any],
        specs: list[RunSpec],
        shared: RunSpec | None,
        width: int,
    ) -> list:
        """Chunked, order-preserving fan-out over the process pool.

        Inputs are sharded into up to ``CHUNKS_PER_WORKER × width``
        contiguous chunks and submitted with at most ``width`` chunks in
        flight: the executor's shared queue hands the next chunk to
        whichever worker frees up first, so a straggler only delays its
        own chunk, not the tail.
        """
        executor = self._ensure_process_executor()
        shared_payload = None if shared is None else shared.to_dict()
        spec_dicts = (
            None if shared is not None else [spec.to_dict() for spec in specs]
        )
        n = len(inputs)
        n_chunks = min(n, width * CHUNKS_PER_WORKER)
        base, extra = divmod(n, n_chunks)
        chunks = []
        start = 0
        for chunk_index in range(n_chunks):
            size = base + (1 if chunk_index < extra else 0)
            chunks.append(
                [(i, inputs[i]) for i in range(start, start + size)]
            )
            start += size

        results: list[Any] = [None] * n
        pending = iter(chunks)
        in_flight = set()

        def submit_next() -> None:
            chunk = next(pending, None)
            if chunk is not None:
                payload = (
                    shared_payload
                    if spec_dicts is None
                    else [spec_dicts[i] for i, _ in chunk]
                )
                in_flight.add(
                    executor.submit(runner._run_chunk, kind, payload, chunk)
                )

        try:
            for _ in range(min(width, n_chunks)):
                submit_next()
            while in_flight:
                done, in_flight = wait(
                    in_flight, return_when=FIRST_COMPLETED
                )
                for future in done:
                    chunk_results, _ = future.result()
                    for index, artifact in chunk_results:
                        results[index] = artifact
                    submit_next()
        except BrokenProcessPool:
            self._drop_broken(executor)
            raise
        return results


@contextlib.contextmanager
def session_scope(
    session: Session | None = None, **kwargs: Any
) -> Any:
    """Yield ``session``, or a temporary ``Session(**kwargs)``.

    The experiment drivers and CLI commands accept an optional caller
    session; this scope is their uniform plumbing — a caller-provided
    session is yielded untouched (the caller owns its lifecycle), and
    the ``None`` case builds a throwaway session that is closed when
    the block exits.

    Examples
    --------
    >>> from repro.api.session import session_scope
    >>> with session_scope(executor="thread") as session:
    ...     session.closed
    False
    """
    if session is not None:
        yield session
        return
    scoped = Session(**kwargs)
    try:
        yield scoped
    finally:
        scoped.close()


# ----------------------------------------------------------------------
# The process-wide default session behind the module-level verbs
# ----------------------------------------------------------------------
_default_session: Session | None = None
_default_lock = threading.Lock()
#: Set by the atexit hook: once the interpreter is tearing down, no
#: replacement default session may be built — its executors would
#: never be reaped (there is no later hook to close
#: them), which is exactly the zombie-session leak the flag prevents.
_default_shutdown = False


def default_session() -> Session:
    """The lazily created process-wide session.

    Backs the module-level :func:`repro.api.detect` /
    :func:`repro.api.solve` / :func:`repro.api.detect_batch` /
    :func:`repro.api.solve_batch` verbs, so plain facade calls reuse
    one set of executors without any session plumbing.
    It is closed automatically on interpreter exit (an :mod:`atexit`
    hook), which shuts its executors down — with a process-pool
    backend that is what reaps the worker processes.

    A default session closed *before* interpreter exit (e.g. by an
    explicit :func:`_close_default_session`) is transparently replaced
    — the still-registered atexit hook reaps the replacement too.
    Once the hook itself has run, building a replacement would leak its
    executors with nothing left to close them, so facade calls during
    interpreter teardown raise :class:`SessionError` instead.

    Examples
    --------
    >>> import repro.api as api
    >>> api.default_session() is api.default_session()
    True
    """
    global _default_session
    with _default_lock:
        if _default_shutdown:
            raise SessionError(
                "the process-wide default session was already shut down "
                "at interpreter exit; a replacement built this late "
                "would leak its executors.  Create an explicit "
                "Session() and close it yourself if you really need "
                "one during teardown"
            )
        if _default_session is None or _default_session.closed:
            _default_session = Session()
        return _default_session


def _close_default_session() -> None:
    """Close the process-wide default session (idempotent).

    Detaches and closes the current default session; the next
    :func:`default_session` call builds a fresh one (still covered by
    the atexit hook, which closes whatever default session exists when
    the interpreter exits).
    """
    global _default_session
    with _default_lock:
        session, _default_session = _default_session, None
    if session is not None:
        session.close()


def _shutdown_default_session() -> None:
    """Interpreter-exit hook: close the default session **finally**.

    Unlike :func:`_close_default_session` this also latches
    ``_default_shutdown``, so a late facade call cannot silently
    rebuild a zombie session whose process pool would never be
    reaped (no atexit hook runs after this one).

    Registered with :mod:`atexit` so a plain-facade process never leaks
    its executors: thread pools are joined and, when a process backend
    was used, the worker processes are shut down instead of lingering
    until the OS reaps them.
    """
    global _default_shutdown
    with _default_lock:
        _default_shutdown = True
    _close_default_session()


atexit.register(_shutdown_default_session)
