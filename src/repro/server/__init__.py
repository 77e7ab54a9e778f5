"""The service tier: ``repro serve`` and its building blocks.

:class:`ReproServer` (:mod:`repro.server.core`) serves ``POST
/detect`` / ``POST /solve`` JSON requests through one warm
:class:`repro.api.Session` with bounded-queue admission, per-request
``time_limit`` SLAs, graceful SIGTERM drain and a ``503`` for a
request a dead worker process failed; :mod:`repro.server.wire` defines
the request payload formats.  Everything is standard library —
the tier adds no dependency beyond the Python that runs the solvers.

Examples
--------
>>> from repro.server import ReproServer
>>> with ReproServer(port=0, max_queue=2) as server:
...     server.stats()["server"]["max_queue"]
2
"""

from __future__ import annotations

from repro.server.core import (
    DEFAULT_MAX_BODY_BYTES,
    DEFAULT_MAX_QUEUE,
    DEFAULT_READ_TIMEOUT,
    ReproServer,
)
from repro.server.wire import (
    WireError,
    apply_time_limit,
    parse_detect_request,
    parse_solve_request,
    parse_time_limit,
)

__all__ = [
    "DEFAULT_MAX_BODY_BYTES",
    "DEFAULT_MAX_QUEUE",
    "DEFAULT_READ_TIMEOUT",
    "ReproServer",
    "WireError",
    "apply_time_limit",
    "parse_detect_request",
    "parse_solve_request",
    "parse_time_limit",
]
