"""The stdlib HTTP server behind ``repro serve``.

:class:`ReproServer` wraps one process-wide warm
:class:`repro.api.Session` in a :class:`http.server.ThreadingHTTPServer`
— no third-party framework, no event loop, just the stdlib threading
server with the session's own executors doing the work:

* ``POST /detect`` / ``POST /solve`` — parse a JSON request body
  (:mod:`repro.server.wire`), run it through
  :meth:`repro.api.Session.submit`, return the
  :meth:`repro.api.RunArtifact.to_json` payload.  Seeded responses are
  bit-identical to direct :func:`repro.api.detect` runs.
* ``GET /healthz`` — liveness (+ drain state).
* ``GET /stats`` — request counters, queue depth, and the full
  :meth:`repro.api.Session.stats` (run and clamp counters, executor,
  BLAS threads).

Robustness contract
-------------------
**Bounded admission.**  At most ``max_queue`` requests are in flight or
queued at once — a :class:`threading.BoundedSemaphore` is acquired
non-blocking before the body is even read, and an overloaded server
answers ``429`` with ``Retry-After`` instead of buffering unbounded
work (the ``shed`` counter tallies these).

**Per-request SLAs.**  A top-level ``time_limit`` in the request body
is threaded into the spec's solver budget
(:func:`repro.server.wire.apply_time_limit`); a run that exhausts it
still answers ``200`` — the artifact's result carries
``status="time_limit"`` — and is tallied in ``timed_out``.

**Slow clients.**  Each connection gets a socket read timeout
(``read_timeout``, default 30 s).  A client that stalls mid-body gets
``408`` once the socket has been silent that long; the body is never
parsed, the answer is tallied in ``errors``, and the admission slot it
held is freed.

**Graceful drain.**  :meth:`ReproServer.request_shutdown` (wired to
SIGTERM/SIGINT by the CLI) stops the accept loop; in-flight handlers
finish and are joined (``block_on_close``), new requests get ``503``,
and an owned session is closed — reaping worker processes — before
:meth:`serve_forever` returns.

**Worker death.**  A killed process worker breaks the session's pool;
the requests it fails answer ``503`` with ``Retry-After`` (tallied in
``errors``), and the session builds a fresh pool for the next one
(``/stats`` → ``session.worker_restarts``).

Error mapping: ``404`` unknown path, ``405`` wrong method, ``411``
missing ``Content-Length``, ``413`` oversized body, ``408`` a body
that stalls past the read timeout, ``400`` invalid
JSON, a negative or non-integer ``Content-Length``, or a body shorter
than its ``Content-Length`` (never parsed), ``422`` well-formed JSON
that is not a valid request
(:class:`repro.server.wire.WireError` or a library
:class:`repro.exceptions.ReproError`), ``429`` queue full, ``503``
draining or a dead worker, ``500`` anything unexpected (tallied in
``errors``).  A client that resets or closes its connection before
the reply is written gets no answer and is tallied in
``disconnected``, with nothing printed.
"""

from __future__ import annotations

import json
import math
import threading
from concurrent.futures.process import BrokenProcessPool
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, cast

from repro.api.session import Session, SessionError
from repro.api.spec import RunArtifact
from repro.exceptions import ReproError
from repro.server import wire

#: Default bound on in-flight + queued requests (the 429 threshold).
DEFAULT_MAX_QUEUE = 8

#: Default request-body size cap in bytes (the 413 threshold).
DEFAULT_MAX_BODY_BYTES = 8 * 1024 * 1024

#: Default seconds a connection may stay silent mid-read (the 408 threshold).
DEFAULT_READ_TIMEOUT = 30.0


class _HttpServer(ThreadingHTTPServer):
    """Threading HTTP server that joins its handlers on close.

    The stock :class:`ThreadingHTTPServer` marks handler threads as
    daemons and forgets them on ``server_close`` — exactly wrong for
    graceful drain.  ``block_on_close`` makes ``server_close()`` join
    every in-flight handler, so the drain sequence (stop accepting →
    finish in-flight → close the session) is a plain call order.
    """

    daemon_threads = False
    block_on_close = True
    repro_server: "ReproServer"


class _Handler(BaseHTTPRequestHandler):
    """Per-connection request handler; all state lives on the server."""

    # HTTP/1.0 + an explicit ``Connection: close`` per response: no
    # keep-alive connections that would hold handler threads open and
    # stall the drain join in ``server_close``.
    protocol_version = "HTTP/1.0"

    @property
    def _repro(self) -> "ReproServer":
        return cast(_HttpServer, self.server).repro_server

    def log_message(self, format: str, *args: Any) -> None:
        """Silence the stock stderr access log (stats() observes)."""

    def setup(self) -> None:
        """Give the connection the server's socket read timeout."""
        self.timeout = self._repro.read_timeout
        super().setup()

    def handle(self) -> None:
        """Serve the connection; tally a vanished client, print nothing.

        A reset or closed socket raises :class:`ConnectionError` from
        the read or write that meets it (request, body or reply); the
        stock handler would print a traceback.  An admitted request
        has already released its slot in :meth:`do_POST`'s ``finally``.
        """
        try:
            super().handle()
        except ConnectionError:
            self._repro._tally("disconnected")

    def _send_json(
        self,
        status: int,
        body: str,
        headers: dict[str, str] | None = None,
    ) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.send_header("Connection", "close")
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    def _send_error_json(
        self,
        status: int,
        message: str,
        headers: dict[str, str] | None = None,
    ) -> None:
        self._send_json(
            status, json.dumps({"error": message}), headers=headers
        )

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def do_GET(self) -> None:
        route = self.path.split("?", 1)[0]
        server = self._repro
        if route == "/healthz":
            self._send_json(
                200,
                json.dumps(
                    {
                        "status": (
                            "draining" if server.draining else "ok"
                        )
                    }
                ),
            )
        elif route == "/stats":
            self._send_json(200, json.dumps(server.stats()))
        elif route in ("/detect", "/solve"):
            self._send_error_json(
                405, f"{route} requires POST", headers={"Allow": "POST"}
            )
        else:
            self._send_error_json(404, f"unknown path {route!r}")

    def do_POST(self) -> None:
        route = self.path.split("?", 1)[0]
        server = self._repro
        if route not in ("/detect", "/solve"):
            if route in ("/healthz", "/stats"):
                self._send_error_json(
                    405,
                    f"{route} requires GET",
                    headers={"Allow": "GET"},
                )
            else:
                self._send_error_json(404, f"unknown path {route!r}")
            return
        if server.draining:
            self._send_error_json(
                503,
                "server is draining",
                headers={"Retry-After": "1"},
            )
            return
        raw_length = self.headers.get("Content-Length")
        if raw_length is None:
            self._send_error_json(
                411, "Content-Length header is required"
            )
            return
        try:
            length = int(raw_length)
        except ValueError:
            length = -1
        if length < 0:
            server._tally("errors")
            self._send_error_json(
                400, f"invalid Content-Length {raw_length!r}"
            )
            return
        if length > server.max_body_bytes:
            server._tally("errors")
            self._send_error_json(
                413,
                f"request body of {length} bytes exceeds the "
                f"{server.max_body_bytes}-byte limit",
            )
            return
        if not server._admit():
            self._send_error_json(
                429,
                f"job queue is full ({server.max_queue} in flight); "
                f"retry shortly",
                headers={"Retry-After": "1"},
            )
            return
        try:
            try:
                body = self.rfile.read(length)
            except TimeoutError:
                server._tally("errors")
                self._send_error_json(
                    408,
                    f"request body not received within the "
                    f"{server.read_timeout:g} s read timeout",
                )
                return
            if len(body) < length:
                server._tally("errors")
                self._send_error_json(
                    400,
                    f"truncated request body: got {len(body)} of "
                    f"{length} bytes",
                )
                return
            self._run_job(route, body)
        finally:
            server._release()

    def _run_job(self, route: str, body: bytes) -> None:
        """Parse, run and answer one admitted ``/detect`` or ``/solve``."""
        server = self._repro
        try:
            payload = json.loads(body)
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            server._tally("errors")
            self._send_error_json(400, f"invalid JSON body: {error}")
            return
        try:
            if route == "/detect":
                item, spec = wire.parse_detect_request(payload)
                kind = "detect"
            else:
                item, spec = wire.parse_solve_request(payload)
                kind = "solve"
            spec = wire.apply_time_limit(
                spec, wire.parse_time_limit(payload)
            )
            artifact = server.session.submit(
                item, spec, kind=kind
            ).result()
        except (wire.WireError, ReproError) as error:
            server._tally("errors")
            self._send_error_json(422, str(error))
            return
        except BrokenProcessPool as error:
            # The session already swapped the broken pool out.
            server._tally("errors")
            self._send_error_json(
                503,
                f"a worker process died: {error}",
                headers={"Retry-After": "1"},
            )
            return
        except Exception as error:  # noqa: BLE001 - last-resort 500
            server._tally("errors")
            self._send_error_json(
                500, f"internal error: {type(error).__name__}: {error}"
            )
            return
        server._note_served(artifact)
        self._send_json(200, artifact.to_json(indent=None))


class ReproServer:
    """One warm :class:`Session` behind a bounded-queue HTTP front.

    Parameters
    ----------
    host, port:
        Bind address.  ``port=0`` binds an ephemeral port; read the
        resolved one from :attr:`port` (tests do exactly this).
    session:
        An existing session to serve — the caller keeps ownership and
        must close it.  ``None`` (default) builds a private
        ``Session(**session_kwargs)`` that the drain sequence closes.
    max_queue:
        Bound on concurrently admitted requests; the ``429``/
        ``Retry-After`` threshold.  This is the server's only queue —
        there is no unbounded buffer anywhere.
    max_body_bytes:
        Request-body size cap; the ``413`` threshold.
    read_timeout:
        Seconds a connection may stay silent while its request is read;
        a stalled body answers ``408`` and frees its slot.
    **session_kwargs:
        Constructor arguments for the private session
        (``max_workers``, ``executor``).

    Examples
    --------
    >>> server = ReproServer(port=0, max_queue=2, executor="thread")
    >>> server.port > 0
    True
    >>> server.stats()["server"]["served"]
    0
    >>> server.close()
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8000,
        *,
        session: Session | None = None,
        max_queue: int = DEFAULT_MAX_QUEUE,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        read_timeout: float = DEFAULT_READ_TIMEOUT,
        **session_kwargs: Any,
    ) -> None:
        if int(max_queue) < 1:
            raise SessionError(
                f"max_queue must be >= 1, got {max_queue}"
            )
        if int(max_body_bytes) < 1:
            raise SessionError(
                f"max_body_bytes must be >= 1, got {max_body_bytes}"
            )
        if not 0 < float(read_timeout) < math.inf:
            raise SessionError(
                f"read_timeout must be a positive number of seconds, "
                f"got {read_timeout}"
            )
        self._session = (
            Session(**session_kwargs) if session is None else session
        )
        self._owned = session is None
        self._max_queue = int(max_queue)
        self._max_body_bytes = int(max_body_bytes)
        self._read_timeout = float(read_timeout)
        self._slots = threading.BoundedSemaphore(self._max_queue)
        self._lock = threading.Lock()
        self._depth = 0
        self._counters = {
            "served": 0,
            "shed": 0,
            "timed_out": 0,
            "errors": 0,
            "disconnected": 0,
        }
        self._draining = False
        self._closed = False
        self._serving = False
        self._httpd = _HttpServer((host, int(port)), _Handler)
        self._httpd.repro_server = self

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def session(self) -> Session:
        """The warm session every request runs through."""
        return self._session

    @property
    def host(self) -> str:
        """The bound host address."""
        return str(self._httpd.server_address[0])

    @property
    def port(self) -> int:
        """The bound port (resolved — meaningful with ``port=0``)."""
        return int(self._httpd.server_address[1])

    @property
    def url(self) -> str:
        """Base URL of the bound address."""
        return f"http://{self.host}:{self.port}"

    @property
    def max_queue(self) -> int:
        """The admission bound (the 429 threshold)."""
        return self._max_queue

    @property
    def max_body_bytes(self) -> int:
        """The request-body size cap (the 413 threshold)."""
        return self._max_body_bytes

    @property
    def read_timeout(self) -> float:
        """Seconds a connection may stay silent mid-read (the 408 cap)."""
        return self._read_timeout

    @property
    def draining(self) -> bool:
        """Whether :meth:`request_shutdown` has been called."""
        return self._draining

    def stats(self) -> dict[str, Any]:
        """Server counters + queue state + the session's stats."""
        with self._lock:
            counters = dict(self._counters)
            depth = self._depth
        return {
            "server": {
                **counters,
                "queue_depth": depth,
                "max_queue": self._max_queue,
                "draining": self._draining,
            },
            "session": self._session.stats(),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = (
            "closed"
            if self._closed
            else ("draining" if self._draining else "serving")
        )
        return (
            f"ReproServer({self.url}, max_queue={self._max_queue}, "
            f"{state})"
        )

    # ------------------------------------------------------------------
    # Admission control (handler-facing)
    # ------------------------------------------------------------------
    def _admit(self) -> bool:
        """Take one queue slot without blocking; ``False`` sheds (429)."""
        if self._slots.acquire(blocking=False):
            with self._lock:
                self._depth += 1
            return True
        self._tally("shed")
        return False

    def _release(self) -> None:
        with self._lock:
            self._depth -= 1
        self._slots.release()

    def _tally(self, key: str) -> None:
        with self._lock:
            self._counters[key] += 1

    def _note_served(self, artifact: RunArtifact) -> None:
        """Count one 200 answer, flagging time-limited runs."""
        from repro.solvers.base import SolverStatus

        result = artifact.result
        solve_result = getattr(result, "solve_result", result)
        status = getattr(solve_result, "status", None)
        with self._lock:
            self._counters["served"] += 1
            if status is SolverStatus.TIME_LIMIT:
                self._counters["timed_out"] += 1

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        """Serve until :meth:`request_shutdown`, then drain and close.

        The ``finally`` is the drain contract: ``server_close()`` joins
        every in-flight handler thread (``block_on_close``) before an
        owned session is closed, so no request is answered by a
        half-torn-down session and no worker process outlives the serve
        loop.
        """
        self._serving = True
        try:
            self._httpd.serve_forever(poll_interval=0.1)
        finally:
            self.close()

    def request_shutdown(self) -> None:
        """Begin a graceful drain (idempotent, signal-safe).

        Flips :attr:`draining` (new POSTs answer ``503``) and stops the
        accept loop from a helper thread —
        :meth:`~socketserver.BaseServer.shutdown` blocks until
        ``serve_forever`` exits, and the caller may *be* the
        ``serve_forever`` thread (a signal handler runs on the main
        thread), so calling it inline would deadlock.
        """
        with self._lock:
            if self._draining:
                return
            self._draining = True
        threading.Thread(
            target=self._httpd.shutdown,
            name="repro-serve-shutdown",
            daemon=True,
        ).start()

    def close(self) -> None:
        """Stop accepting, join handlers, close an owned session.

        Idempotent; also the teardown path for a server that never
        entered :meth:`serve_forever` (bind-only uses and tests).
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._draining = True
        if self._serving:
            # shutdown() waits on an event only the serve loop sets —
            # calling it on a bind-only server would block forever.
            self._httpd.shutdown()
        self._httpd.server_close()
        if self._owned and not self._session.closed:
            self._session.close()

    def __enter__(self) -> "ReproServer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
