"""The unified public facade of the library.

``repro.api`` is the supported entry point for driving any
solver/detector combination declaratively:

* :data:`SOLVERS` / :data:`DETECTORS` — plugin registries every solver
  and detector self-registers into (``available()``, ``create(name,
  **cfg)``),
* :class:`RunSpec` — one JSON-serialisable dict describing a whole run
  (detector + solver + configs + ``n_communities`` + seed),
* :func:`detect` / :func:`solve` / :func:`detect_batch` /
  :func:`solve_batch` — execute a spec on a graph, a QUBO model, or a
  batch of either (thread-pool fan-out), returning :class:`RunArtifact`
  objects that serialise the spec, result, timings and seed back to
  JSON,
* :class:`Session` — a reusable run context owning a persistent
  worker pool (threads or processes); the module-level verbs delegate
  to the process-wide :func:`default_session`, so repeated and batched
  runs reuse its workers (results stay bit-identical to one-shot
  runs).

Example::

    import repro.api as api

    spec = {
        "detector": "qhd",
        "solver": "simulated-annealing",
        "solver_config": {"n_sweeps": 100},
        "n_communities": 4,
        "seed": 7,
    }
    artifact = api.detect(graph, spec)
    print(artifact.result.modularity, artifact.to_json())

The heavy runner module is loaded lazily so that implementation modules
can import the registries without a circular import.
"""

from __future__ import annotations

from typing import Any

from repro.api.config import ConfigError, Configurable
from repro.api.registry import (
    DETECTORS,
    SOLVERS,
    Registry,
    RegistryError,
    resolve_solver,
    solver_to_spec,
)
from repro.api.spec import RunArtifact, RunSpec, SpecError

_RUNNER_EXPORTS = (
    "build_detector",
    "build_solver",
    "detect",
    "detect_batch",
    "solve",
    "solve_batch",
)

_SESSION_EXPORTS = (
    "Session",
    "SessionError",
    "default_session",
    "session_scope",
)

_STREAM_EXPORTS = ("detect_stream",)

__all__ = [
    "Configurable",
    "ConfigError",
    "Registry",
    "RegistryError",
    "SOLVERS",
    "DETECTORS",
    "resolve_solver",
    "solver_to_spec",
    "RunSpec",
    "RunArtifact",
    "SpecError",
    *_RUNNER_EXPORTS,
    *_SESSION_EXPORTS,
    *_STREAM_EXPORTS,
]


def __getattr__(name: str) -> Any:
    if name in _RUNNER_EXPORTS:
        from repro.api import runner

        return getattr(runner, name)
    if name in _SESSION_EXPORTS:
        from repro.api import session

        return getattr(session, name)
    if name in _STREAM_EXPORTS:
        from repro.api import stream

        return getattr(stream, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(__all__)
