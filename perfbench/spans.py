"""Layer spans recorded from outside the program.

The benchmark never edits ``src/``.  A traced run replaces each layer's
public function or method with a wrapper that records a span around the
call (:func:`install`); the end-to-end runs install nothing.

A span is the tuple ``(sid, parent, name, start, end, op, pid)``:

* ``sid`` is unique across processes (pid in the high bits);
* ``parent`` is the innermost span open on the same thread when the
  span began, or 0 for a root span;
* ``start`` / ``end`` read :data:`CLOCK`, which on Linux is
  ``CLOCK_MONOTONIC`` and so comparable across processes;
* ``op`` tags the operation the span belongs to when the caller knows
  it (the benchmark's op index in-process, ``"<pid>:<chunk>"`` in a
  process-pool worker).

Spans stay in memory until the run ends.  Process-pool workers ship
theirs back with each chunk result: the wrapped chunk task returns a
list whose pickled form re-delivers the spans into the receiving
process's active tracer (:class:`_Carrier`), so the parent sees worker
spans without any side channel.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator

CLOCK = time.perf_counter

#: ``(span name, module, attribute)`` for every layer boundary the
#: traced run times.  The module is where the *caller* looks the name up
#: (``repro.community.multilevel`` binds its own ``refine_labels``), so
#: one function can map to different spans depending on who calls it.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("graphs.coarsen", "repro.community.multilevel", "coarsen_to_threshold"),
    ("graphs.apply_updates", "repro.graphs.graph", "Graph.apply_updates"),
    ("qubo.build", "repro.community.direct", "build_community_qubo"),
    ("qubo.build", "repro.qubo", "build_community_qubo"),
    ("qubo.patch", "repro.qubo.streaming", "CommunityQuboPatcher.update"),
    ("qubo.repatch", "repro.qubo.delta", "FlipDeltaState.repatch"),
    ("qubo.decode", "repro.community.direct", "decode_assignment"),
    ("qubo.decode", "repro.qubo", "decode_assignment"),
    ("qhd.solve", "repro.qhd.solver", "QhdSolver.solve"),
    ("qhd.evolve", "repro.qhd.engine", "EvolutionEngine.evolve"),
    ("qhd.measure", "repro.qhd.engine", "EvolutionEngine.measure"),
    ("qhd.polish", "repro.qhd.solver", "refine_candidates"),
    ("solvers.greedy", "repro.solvers.greedy", "GreedySolver.solve"),
    ("community.polish", "repro.community.direct", "refine_labels"),
    ("community.uncoarsen", "repro.community.multilevel", "refine_labels"),
    ("community.modularity", "repro.community.direct", "modularity"),
    ("community.modularity", "repro.community.multilevel", "modularity"),
    ("api.build", "repro.api.runner", "build_detector"),
    ("server.parse", "repro.server.wire", "parse_detect_request"),
    ("server.encode", "repro.api.spec", "RunArtifact.to_json"),
)

#: The process-pool chunk task; wrapped so worker spans ride home.
CHUNK_TARGET = ("api.chunk", "repro.api.runner", "_run_chunk")

#: Layers of the self-time table, in ``src/repro`` module order.
LAYERS = ("graphs", "qubo", "qhd", "solvers", "community", "api", "server")

Span = tuple  # (sid, parent, name, start, end, op, pid)

#: The tracer receiving spans unpickled from worker results.
_ACTIVE: "Tracer | None" = None


class Tracer:
    """In-memory span recorder for one process (and its forked workers)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._seq = itertools.count(1)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_op(self, op: Any) -> None:
        """Tag spans opened on this thread from now on with ``op``."""
        self._local.op = op

    def reset_thread(self) -> None:
        """Forget open spans inherited by a forked worker's thread."""
        self._local.stack = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack()
        pid = os.getpid()
        sid = (pid << 32) | next(self._seq)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = CLOCK()
        try:
            yield
        finally:
            end = CLOCK()
            stack.pop()
            self.spans.append(
                (sid, parent, name, start, end,
                 getattr(self._local, "op", None), pid)
            )

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def wrap_chunk(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap the worker chunk task so its spans return with its result."""
        chunks = itertools.count()

        @functools.wraps(fn)
        def traced_chunk(*args: Any, **kwargs: Any) -> Any:
            self.reset_thread()
            self.set_op(f"{os.getpid()}:{next(chunks)}")
            mark = len(self.spans)
            with self.span(CHUNK_TARGET[0]):
                results, delta = fn(*args, **kwargs)
            shipped = self.spans[mark:]
            del self.spans[mark:]
            return _Carrier(results, shipped), delta

        return traced_chunk


class _Carrier(list):
    """A chunk result list that delivers its spans when unpickled."""

    def __init__(self, items: Iterable[Any], spans: list[Span]) -> None:
        super().__init__(items)
        self.spans = spans

    def __reduce__(self) -> tuple[Any, ...]:
        return (_deliver, (list(self), self.spans))


def _deliver(items: list[Any], spans: list[Span]) -> list[Any]:
    if _ACTIVE is not None:
        _ACTIVE.spans.extend(tuple(span) for span in spans)
    return items


def _resolve(module_name: str, attribute: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every target for ``tracer``; return a function that undoes it.

    Install before the session builds its process pool: forked workers
    inherit the wrapped modules.
    """
    global _ACTIVE
    originals = []
    for name, module_name, attribute in TARGETS + (CHUNK_TARGET,):
        owner, leaf = _resolve(module_name, attribute)
        original = owner.__dict__[leaf]
        wrapped = (
            tracer.wrap_chunk(original)
            if (name, module_name, attribute) == CHUNK_TARGET
            else tracer.wrap(name, original)
        )
        setattr(owner, leaf, wrapped)
        originals.append((owner, leaf, original))
    _ACTIVE = tracer

    def uninstall() -> None:
        global _ACTIVE
        for owner, leaf, original in reversed(originals):
            setattr(owner, leaf, original)
        _ACTIVE = None

    return uninstall


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the part its child spans cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sid, parent, _, start, end, *_ in spans:
        if parent:
            children[parent].append((start, end))
    result = {}
    for sid, _, _, start, end, *_ in spans:
        covered = 0.0
        cursor = start
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[sid] = (end - start) - covered
    return result


def totals_by_name(spans: Iterable[Span]) -> dict[str, float]:
    """Inclusive seconds per span name."""
    totals: dict[str, float] = defaultdict(float)
    for _, _, name, start, end, *_ in spans:
        totals[name] += end - start
    return dict(totals)


def self_by_layer(spans: Iterable[Span]) -> dict[str, float]:
    """Self seconds per layer (the span name's prefix)."""
    spans = list(spans)
    own = self_times(spans)
    totals = dict.fromkeys(LAYERS, 0.0)
    for sid, _, name, *_ in spans:
        totals[name.split(".", 1)[0]] += own[sid]
    return totals


def layer_table(
    spans: Iterable[Span], ops: int, op_wall_s: float
) -> dict[str, float]:
    """Per-op self milliseconds per layer plus the ``other`` remainder.

    ``op_wall_s`` is the wall time budget of one op; the entries sum to
    it exactly, ``other`` taking whatever no span covers.
    """
    per_layer = {
        layer: 1000.0 * seconds / ops
        for layer, seconds in self_by_layer(spans).items()
    }
    per_layer["other"] = 1000.0 * op_wall_s - sum(per_layer.values())
    return per_layer
