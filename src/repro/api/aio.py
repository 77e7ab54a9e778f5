"""Awaitable session verbs for :mod:`asyncio` applications.

:class:`AsyncSession` is the asyncio face of
:class:`repro.api.Session`: every verb returns a coroutine whose
result is the same :class:`repro.api.RunArtifact` the synchronous verb
would return, bit-identical for seeded specs.  No event-loop work
happens in the library — runs are submitted to the underlying
session's executors through :meth:`Session.submit` (single runs) or
its dispatch pool (batch fan-outs) and the resulting
:class:`concurrent.futures.Future` objects are bridged with
:func:`asyncio.wrap_future`, so awaiting a run never blocks the loop.

Concurrency is bounded by the wrapped session: at most
``session.max_workers`` submitted runs execute at once (the rest
queue on the dispatch pool), and on the process backend each run is
forwarded to the persistent process pool as a single-item chunk over
the array wire — ``await`` scales with cores, not with one GIL.

Examples
--------
>>> import asyncio
>>> import repro.api as api
>>> from repro.graphs import ring_of_cliques
>>> async def main():
...     graph, _ = ring_of_cliques(3, 5)
...     spec = {"solver": "greedy", "n_communities": 3, "seed": 0}
...     async with api.AsyncSession() as session:
...         one = await session.detect(graph, spec)
...         many = await session.detect_batch([graph] * 2, spec)
...     return one.result.n_communities, len(many)
>>> asyncio.run(main())
(3, 2)
"""

from __future__ import annotations

import asyncio
from types import TracebackType
from typing import Any, Sequence

from repro.api.session import Session
from repro.api.spec import RunArtifact


class AsyncSession:
    """Awaitable verbs over a (possibly shared) :class:`Session`.

    Parameters
    ----------
    session:
        An existing session to wrap — the caller keeps ownership and
        must close it.  ``None`` (default) builds a private
        ``Session(**kwargs)`` that :meth:`aclose` (or the async
        context manager) closes.
    **kwargs:
        Constructor arguments for the private session when
        ``session`` is ``None`` (``max_workers``, ``executor``).

    Examples
    --------
    >>> import asyncio
    >>> import repro.api as api
    >>> import numpy as np
    >>> from repro.qubo import QuboModel
    >>> async def main():
    ...     model = QuboModel(np.zeros((2, 2)), [-1.0, 1.0])
    ...     async with api.AsyncSession() as session:
    ...         artifact = await session.solve(
    ...             model, {"solver": "greedy", "seed": 0})
    ...     return artifact.result.energy
    >>> asyncio.run(main())
    -1.0
    """

    def __init__(self, session: Session | None = None, **kwargs: Any) -> None:
        self._session = Session(**kwargs) if session is None else session
        self._owned = session is None

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    @property
    def session(self) -> Session:
        """The wrapped synchronous session."""
        return self._session

    @property
    def closed(self) -> bool:
        """Whether the wrapped session is closed."""
        return self._session.closed

    def stats(self) -> dict[str, Any]:
        """The wrapped session's :meth:`Session.stats` (non-blocking)."""
        return self._session.stats()

    async def aclose(self) -> None:
        """Close the wrapped session iff this wrapper built it.

        ``Session.close`` joins executors, so it runs on a worker
        thread (never on the event loop).  Wrapping an externally
        owned session makes this a no-op — the owner closes it.
        """
        if self._owned and not self._session.closed:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, self._session.close)

    async def __aenter__(self) -> "AsyncSession":
        return self

    async def __aexit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        await self.aclose()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        owner = "owned" if self._owned else "shared"
        return f"AsyncSession({self._session!r}, {owner})"

    # ------------------------------------------------------------------
    # Awaitable verbs
    # ------------------------------------------------------------------
    async def detect(self, graph: Any, spec: Any) -> RunArtifact:
        """``await`` one detection run (see :meth:`Session.detect`)."""
        return await asyncio.wrap_future(
            self._session.submit(graph, spec, kind="detect")
        )

    async def solve(self, model: Any, spec: Any) -> RunArtifact:
        """``await`` one solve run (see :meth:`Session.solve`)."""
        return await asyncio.wrap_future(
            self._session.submit(model, spec, kind="solve")
        )

    async def submit(
        self, item: Any, spec: Any, kind: str | None = None
    ) -> RunArtifact:
        """``await`` one run with :meth:`Session.submit` kind inference."""
        return await asyncio.wrap_future(
            self._session.submit(item, spec, kind=kind)
        )

    async def detect_batch(
        self,
        graphs: Sequence[Any],
        spec: Any,
        max_workers: int | None = None,
    ) -> list[RunArtifact]:
        """``await`` a whole detection batch, order-preserving.

        The blocking :meth:`Session.detect_batch` runs on the
        session's dispatch pool (so the loop stays free) and fans out
        over the session's thread/process batch executor as usual —
        chunking and the batch ≡ singles bit-exactness contract are
        unchanged.
        """
        return await asyncio.wrap_future(
            self._session._dispatch(
                self._session.detect_batch, graphs, spec, max_workers
            )
        )

    async def solve_batch(
        self,
        models: Sequence[Any],
        spec: Any,
        max_workers: int | None = None,
    ) -> list[RunArtifact]:
        """``await`` a whole solve batch (see :meth:`detect_batch`)."""
        return await asyncio.wrap_future(
            self._session._dispatch(
                self._session.solve_batch, models, spec, max_workers
            )
        )
