"""Keyed pool of :class:`~repro.qhd.engine.EvolutionEngine` instances.

The evolution engine front-loads everything a run can share — schedule
coefficient tables, the ``(n_steps, grid)`` kinetic phase table and a
full set of ping-pong workspace buffers — so *constructing* one is the
dominant per-run cost of small-graph batch workloads: ``detect_batch``
used to build a fresh engine per graph even when every run in the batch
had the same grid shape, step count and dtype.

:class:`EnginePool` closes that gap.  Engines are cached under an
:func:`engine_key` covering every construction parameter that shapes the
precomputed tables and buffers (sample count, variable count, grid
points, step count, horizon, schedule parameters, boundary,
normalisation cadence and dtype) and leased to runs:

* a **lease** (:meth:`EnginePool.lease`) pops a cached engine for the
  key — or constructs one on a miss — and hands it out exclusively;
  concurrent leases of the same key always receive *distinct* engine
  instances, so runs can never alias each other's workspace buffers;
* on release the engine drops its references to the run's model and
  wavefunction tensor (:meth:`EvolutionEngine.release`) and returns to
  the idle list (bounded by ``max_idle_per_key``; overflow engines are
  discarded so the pool cannot grow without bound);
* the next lease of the key **rebinds** the cached engine to the new
  run's model and energy scale (:meth:`EvolutionEngine.rebind`) — the
  phase tables depend only on the key, and every workspace buffer is
  fully rewritten before it is read, so pooled runs are bit-for-bit
  identical to fresh-engine runs (pinned by ``tests/qhd/test_pool.py``).

The pool is thread-safe and keeps counters (``hits``, ``misses``,
``setup_seconds``, ...) so batch reports can attribute how much engine
setup was amortised away.

Examples
--------
>>> import numpy as np
>>> from repro.hamiltonian.schedules import get_schedule
>>> from repro.qhd.pool import EnginePool
>>> from repro.qubo import QuboModel
>>> from repro.utils.rng import ensure_rng
>>> model = QuboModel(np.array([[0.0, 2.0], [0.0, 0.0]]), [-1.0, -1.0])
>>> pool = EnginePool()
>>> schedule = get_schedule("qhd-default", 1.0)
>>> knobs = dict(n_samples=2, grid_points=8, n_steps=5, t_final=1.0)
>>> with pool.lease(model, schedule, **knobs) as engine:
...     psi0 = np.ones((2, 2, 8), dtype=np.complex128)
...     engine.evolve(psi0, ensure_rng(0)).steps_done
5
>>> with pool.lease(model, schedule, **knobs) as engine:
...     pass  # same key: the cached engine is rebound and reused
>>> pool.stats()["hits"], pool.stats()["misses"]
(1, 1)
"""

from __future__ import annotations

import threading
from types import TracebackType
from typing import Any, Iterable

from repro.exceptions import SimulationError
from repro.hamiltonian.schedules import Schedule
from repro.qhd.engine import EvolutionEngine
from repro.qubo.model import BaseQubo
from repro.utils.timer import Stopwatch


def schedule_key(schedule: Schedule) -> tuple:
    """A hashable value identity for a schedule's coefficient tables.

    Two schedules of the same class with equal (float-valued) parameters
    produce identical coefficient tables, so their engines are
    interchangeable.  Schedules carrying non-numeric state fall back to
    object identity — correct, just never shared across instances.
    """
    cls = type(schedule)
    try:
        params = tuple(
            sorted((k, float(v)) for k, v in vars(schedule).items())
        )
    except (TypeError, ValueError):
        return (cls.__module__, cls.__qualname__, "id", id(schedule))
    return (cls.__module__, cls.__qualname__, params)


def engine_key(
    model: BaseQubo,
    schedule: Schedule,
    *,
    n_samples: int,
    grid_points: int,
    n_steps: int,
    t_final: float,
    boundary: str = "dirichlet",
    normalize_every: int = 10,
    dtype: str = "complex128",
) -> tuple:
    """The cache key of one engine shape.

    Covers every :class:`EvolutionEngine` constructor parameter that
    shapes the precomputed tables or workspace buffers.  The model
    itself is *not* part of the key (only its variable count is): the
    engine is rebound to the lease's model, and ``energy_scale`` is a
    per-run scalar applied outside the precomputation.
    """
    return (
        int(n_samples),
        int(model.n_variables),
        int(grid_points),
        int(n_steps),
        float(t_final),
        str(boundary),
        int(normalize_every),
        str(dtype),
        schedule_key(schedule),
    )


class _EngineLease:
    """Context manager handing one pooled engine to one run."""

    def __init__(
        self, pool: "EnginePool", key: tuple, engine: EvolutionEngine
    ) -> None:
        self._pool = pool
        self._key = key
        self._engine: EvolutionEngine | None = engine

    def __enter__(self) -> EvolutionEngine:
        if self._engine is None:
            raise SimulationError("engine lease already released")
        return self._engine

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        engine, self._engine = self._engine, None
        if engine is not None:
            self._pool._release(self._key, engine)


class EnginePool:
    """Thread-safe cache of evolution engines, keyed by run shape.

    Parameters
    ----------
    max_idle_per_key:
        Idle engines kept per key after release; further releases
        discard the engine (its buffers are the memory cost, so the cap
        bounds the pool at ``max_idle_per_key`` full workspaces per
        distinct run shape).
    max_idle_total:
        Idle engines kept across *all* keys.  When a release would
        exceed it, the least-recently-leased shape's idle engines are
        evicted first — so a long-lived pool (e.g. the process-wide
        default session's) sweeping many distinct run shapes holds at
        most this many workspaces, not one set per shape ever seen.
    """

    # Every write to these outside __init__ must hold self._lock; the
    # REP005 invariant rule (repro.analysis) enforces the declaration.
    _locked_fields = (
        "_hits",
        "_misses",
        "_discarded",
        "_leased",
        "_setup_seconds",
        "_idle",
    )

    def __init__(
        self, max_idle_per_key: int = 4, max_idle_total: int = 16
    ) -> None:
        if max_idle_per_key < 0:
            raise SimulationError(
                f"max_idle_per_key must be >= 0, got {max_idle_per_key}"
            )
        if max_idle_total < 0:
            raise SimulationError(
                f"max_idle_total must be >= 0, got {max_idle_total}"
            )
        self.max_idle_per_key = int(max_idle_per_key)
        self.max_idle_total = int(max_idle_total)
        # Key order is LRU: a lease hit moves its key to the end, so
        # eviction pops from the least-recently-leased shape.
        self._idle: dict[tuple, list[EvolutionEngine]] = {}
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._discarded = 0
        self._leased = 0
        self._setup_seconds = 0.0

    # ------------------------------------------------------------------
    # Leasing
    # ------------------------------------------------------------------
    def lease(
        self,
        model: BaseQubo,
        schedule: Schedule,
        *,
        n_samples: int,
        grid_points: int,
        n_steps: int,
        t_final: float,
        boundary: str = "dirichlet",
        normalize_every: int = 10,
        energy_scale: float = 1.0,
        dtype: str = "complex128",
    ) -> _EngineLease:
        """Lease an engine for ``model`` with the given evolution knobs.

        Returns a context manager yielding the engine; on exit the
        engine is scrubbed (:meth:`EvolutionEngine.release`) and
        returned to the pool.  Cached engines are rebound to ``model``
        and ``energy_scale``; a miss constructs a fresh engine (its
        construction time is added to the pool's ``setup_seconds``).
        """
        key = engine_key(
            model,
            schedule,
            n_samples=n_samples,
            grid_points=grid_points,
            n_steps=n_steps,
            t_final=t_final,
            boundary=boundary,
            normalize_every=normalize_every,
            dtype=dtype,
        )
        engine: EvolutionEngine | None = None
        with self._lock:
            stack = self._idle.get(key)
            if stack:
                engine = stack.pop()
                self._hits += 1
                if not stack:
                    del self._idle[key]
                else:
                    # Mark the shape as recently used (dict order = LRU).
                    self._idle[key] = self._idle.pop(key)
            else:
                self._misses += 1
            self._leased += 1
        if engine is not None:
            engine.rebind(model, energy_scale)
        else:
            watch = Stopwatch().start()
            engine = EvolutionEngine(
                model,
                schedule,
                n_samples=n_samples,
                grid_points=grid_points,
                n_steps=n_steps,
                t_final=t_final,
                boundary=boundary,
                normalize_every=normalize_every,
                energy_scale=energy_scale,
                dtype=dtype,
            )
            watch.stop()
            with self._lock:
                self._setup_seconds += watch.elapsed
        return _EngineLease(self, key, engine)

    def _release(self, key: tuple, engine: EvolutionEngine) -> None:
        engine.release()
        with self._lock:
            self._leased -= 1
            stack = self._idle.setdefault(key, [])
            if len(stack) >= self.max_idle_per_key:
                self._discarded += 1
                if not stack:
                    del self._idle[key]
                return
            stack.append(engine)
            # Returning a shape also counts as recent use.
            self._idle[key] = self._idle.pop(key)
            # Global LRU bound: evict the least-recently-leased shapes
            # so a long-lived pool sweeping many distinct run shapes
            # cannot pin one workspace set per shape ever seen.
            total = sum(len(s) for s in self._idle.values())
            while total > self.max_idle_total:
                oldest_key = next(iter(self._idle))
                oldest = self._idle[oldest_key]
                oldest.pop()
                self._discarded += 1
                total -= 1
                if not oldest:
                    del self._idle[oldest_key]

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Counters of the pool's life so far (JSON-ready)."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "discarded": self._discarded,
                "leased": self._leased,
                "idle": sum(len(s) for s in self._idle.values()),
                "keys": len(self._idle),
                "setup_seconds": self._setup_seconds,
            }

    def counter_snapshot(self) -> dict[str, float]:
        """The pool's *cumulative* counters only (no instantaneous state).

        Unlike :meth:`stats` this excludes ``leased``/``idle``/``keys``,
        which describe the current moment rather than accumulated work —
        the subset that is meaningful to diff (:func:`counter_delta`)
        and merge across pools (:meth:`merge_counters`).
        """
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "discarded": self._discarded,
                "setup_seconds": self._setup_seconds,
            }

    @staticmethod
    def counter_delta(
        before: dict[str, float], after: dict[str, float]
    ) -> dict[str, float]:
        """Counter work done between two :meth:`counter_snapshot` calls."""
        return {key: after[key] - before[key] for key in after}

    def merge_counters(self, delta: dict[str, float]) -> None:
        """Fold another pool's counter delta into this pool's counters.

        This is how ``Session(executor="process")`` aggregates the
        per-worker pools back into the parent: each worker task ships
        the :func:`counter_delta` of the work it did, and the parent's
        pool counters stay the single place batch reports read.
        """
        with self._lock:
            self._hits += int(delta.get("hits", 0))
            self._misses += int(delta.get("misses", 0))
            self._discarded += int(delta.get("discarded", 0))
            self._setup_seconds += float(delta.get("setup_seconds", 0.0))

    def clear(self) -> None:
        """Drop every idle engine (leased engines are unaffected)."""
        with self._lock:
            self._idle.clear()

    def __len__(self) -> int:
        with self._lock:
            return sum(len(s) for s in self._idle.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        stats = self.stats()
        return (
            f"EnginePool(keys={stats['keys']}, idle={stats['idle']}, "
            f"hits={stats['hits']}, misses={stats['misses']})"
        )


# ----------------------------------------------------------------------
# The process-local pool of executor worker processes
# ----------------------------------------------------------------------
#: The worker-process default pool, built once per worker by
#: :func:`init_process_pool` (the ``ProcessPoolExecutor`` initializer of
#: ``Session(executor="process")``) and reused across every task the
#: worker executes.  ``None`` until initialised, or when pooling is
#: disabled for the session.
_process_pool: EnginePool | None = None


def init_process_pool(
    max_idle_per_key: int = 4,
    max_idle_total: int = 16,
    enabled: bool = True,
) -> None:
    """Build (or disable) this process's worker-local engine pool.

    Called once per worker process by the process-pool executor's
    initializer; tasks then share the pool via :func:`process_pool`, so
    same-shape runs landing on the same worker amortise engine setup
    exactly like thread-mode runs amortise it through the session pool.
    Re-initialising replaces the pool (used by tests).
    """
    global _process_pool
    _process_pool = (
        EnginePool(
            max_idle_per_key=max_idle_per_key,
            max_idle_total=max_idle_total,
        )
        if enabled
        else None
    )


def process_pool() -> EnginePool | None:
    """This worker process's engine pool (``None`` when pooling is off)."""
    return _process_pool


#: Attributes walked by :func:`attach_engine_pool` to reach nested
#: solvers: a detector's ``solver``, a portfolio's ``solvers`` and the
#: QHD detector's internal direct/multilevel pipelines.
_CHILD_ATTRS = ("solver", "solvers", "_direct", "_multilevel")


def attach_engine_pool(component: Any, pool: EnginePool | None) -> int:
    """Bind ``pool`` to every pool-aware solver reachable from ``component``.

    Walks ``component`` and its nested solver attributes (a detector's
    ``solver``, a portfolio's member ``solvers``, the QHD detector's
    internal pipelines) and calls ``bind_engine_pool(pool)`` on every
    object exposing it — currently :class:`repro.qhd.QhdSolver`.
    Returns the number of bindings applied.  ``pool=None`` unbinds.
    """
    bound = 0
    seen: set[int] = set()
    stack: list[Any] = [component]
    while stack:
        obj = stack.pop()
        if obj is None or id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, (list, tuple)):
            stack.extend(obj)
            continue
        bind = getattr(obj, "bind_engine_pool", None)
        if callable(bind):
            bind(pool)
            bound += 1
        for attr in _CHILD_ATTRS:
            child = getattr(obj, attr, None)
            if child is not None:
                stack.append(child)
    return bound


def _lease_or_build(
    pool: EnginePool | None,
    model: BaseQubo,
    schedule: Schedule,
    **knobs: Any,
) -> "_EngineLease | _OneShotLease":
    """A lease from ``pool``, or a one-shot lease around a fresh engine.

    The shared acquisition path of :meth:`repro.qhd.QhdSolver._run`:
    with a pool bound the engine is leased (and returned on exit); with
    none a fresh engine is constructed exactly as before pooling
    existed, and simply dropped on exit.
    """
    if pool is not None:
        return pool.lease(model, schedule, **knobs)
    engine = EvolutionEngine(model, schedule, **knobs)
    return _OneShotLease(engine)


class _OneShotLease:
    """Context manager adapter for an unpooled, single-use engine."""

    def __init__(self, engine: EvolutionEngine) -> None:
        self._engine: EvolutionEngine | None = engine

    def __enter__(self) -> EvolutionEngine:
        if self._engine is None:
            raise SimulationError("engine lease already released")
        return self._engine

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self._engine = None


__all__: Iterable[str] = [
    "EnginePool",
    "attach_engine_pool",
    "engine_key",
    "init_process_pool",
    "process_pool",
    "schedule_key",
]
