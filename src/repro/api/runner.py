"""Spec execution: build components from the registries and run them.

This module implements the verbs of the ``repro.api`` facade:

* :func:`build_solver` / :func:`build_detector` — registry-backed
  construction with uniform ``seed`` / ``time_limit`` threading,
* :func:`detect` / :func:`solve` — execute one :class:`RunSpec` on one
  graph / QUBO model and return a :class:`RunArtifact`,
* :func:`detect_batch` / :func:`solve_batch` — fan one spec out over
  many graphs / models, preserving input order and per-input
  determinism (each input gets a freshly built, identically-seeded
  pipeline, so a batch run reproduces the corresponding sequence of
  single runs exactly).

The module-level verbs delegate to the process-wide
:class:`repro.api.Session` (:func:`repro.api.default_session`), which
owns the persistent worker pools; the private ``_detect_one`` /
``_solve_one`` helpers here are the session's per-run execution core,
and ``_run_chunk`` is the task its process pool runs.
"""

from __future__ import annotations

import warnings
from typing import TYPE_CHECKING, Any, Sequence

if TYPE_CHECKING:
    from repro.api.session import Session

from repro.api.registry import DETECTORS, SOLVERS, Registry
from repro.api.spec import RunArtifact, RunSpec, SpecError
from repro.utils.timer import Stopwatch


def _spec_of(spec: RunSpec | dict[str, Any] | str) -> RunSpec:
    """Accept a RunSpec, a spec dict, or JSON text interchangeably."""
    if isinstance(spec, RunSpec):
        return spec
    if isinstance(spec, dict):
        return RunSpec.from_dict(spec)
    if isinstance(spec, str):
        return RunSpec.from_json(spec)
    raise SpecError(
        f"spec must be a RunSpec, dict or JSON string, "
        f"got {type(spec).__name__}"
    )


def _build(
    registry: Registry,
    name: str,
    config: dict[str, Any],
    **overrides: Any,
) -> Any:
    """Create ``name`` from ``registry``, applying supported overrides.

    Overrides (``seed``, ``time_limit``, ...) are threaded into the
    config only when the target class accepts the key and the config
    does not already pin it; unsupported non-``None`` overrides trigger
    a warning instead of being silently dropped — the uniform behaviour
    the old per-call-site solver tables lacked.
    """
    cls = registry.get(name)
    fields = set(cls.config_fields())
    config = dict(config)
    for key, value in overrides.items():
        if value is None or key in config:
            continue
        if key in fields:
            config[key] = value
        else:
            warnings.warn(
                f"{registry.kind} {name!r} does not accept "
                f"{key!r}={value!r}; ignoring it",
                RuntimeWarning,
                stacklevel=3,
            )
    return cls.from_config(config)


def build_solver(
    name: str,
    config: dict[str, Any] | None = None,
    *,
    seed: int | None = None,
    time_limit: float | None = None,
    **extra: Any,
) -> Any:
    """Instantiate a registered solver with uniform knob threading.

    Examples
    --------
    >>> solver = build_solver("simulated-annealing", seed=0, time_limit=5.0)
    >>> solver.time_limit
    5.0
    """
    merged = {**(config or {}), **extra}
    return _build(SOLVERS, name, merged, seed=seed, time_limit=time_limit)


def build_detector(
    spec: RunSpec | dict[str, Any] | str,
) -> Any:
    """Instantiate the detector pipeline described by ``spec``.

    The spec's ``solver``/``solver_config`` become the detector's
    ``solver`` entry (unless ``detector_config`` already pins one), and
    the spec ``seed`` is threaded into both configs wherever accepted.

    Examples
    --------
    >>> detector = build_detector({
    ...     "detector": "qhd",
    ...     "solver": "greedy",
    ...     "seed": 3,
    ... })
    >>> detector.solver.name
    'greedy'
    """
    spec = _spec_of(spec)
    config = dict(spec.detector_config)
    seed = spec.seed
    if spec.solver is not None and "solver" not in config:
        solver_config = dict(spec.solver_config)
        if (
            seed is not None
            and "seed" not in solver_config
            and "seed" in SOLVERS.get(spec.solver).config_fields()
        ):
            solver_config["seed"] = seed
            # The seed was honoured by the solver; if the detector has
            # no seed knob of its own, don't warn that it was ignored.
            if "seed" not in DETECTORS.get(spec.detector).config_fields():
                seed = None
        config["solver"] = {"name": spec.solver, "config": solver_config}
    return _build(DETECTORS, spec.detector, config, seed=seed)


def _supports_warm_start(detector: Any) -> bool:
    """Whether ``detector.detect`` accepts ``initial_partition``.

    The QUBO detectors (direct/multilevel/qhd/adaptive) take the warm
    start; classical baselines (louvain, spectral, ...) do not, and a
    streaming run over one of them simply runs cold every event.
    """
    import inspect

    try:
        signature = inspect.signature(detector.detect)
    except (TypeError, ValueError):  # pragma: no cover - C callables
        return False
    return "initial_partition" in signature.parameters


def _detect_one(
    graph: Any,
    spec: RunSpec,
    index: int,
    initial_partition: Any = None,
) -> "RunArtifact":
    total = Stopwatch().start()
    build = Stopwatch().start()
    detector = build_detector(spec)
    build.stop()
    if spec.n_communities is None:
        raise SpecError(
            "spec.n_communities is required for detection runs"
        )
    run = Stopwatch().start()
    if initial_partition is not None and _supports_warm_start(detector):
        result = detector.detect(
            graph,
            n_communities=spec.n_communities,
            initial_partition=initial_partition,
        )
    else:
        result = detector.detect(graph, n_communities=spec.n_communities)
    run.stop()
    total.stop()
    return RunArtifact(
        spec=spec,
        result=result,
        timings={
            "build": build.elapsed,
            "run": run.elapsed,
            "total": total.elapsed,
        },
        seed=spec.seed,
        index=index,
    )


def _solve_one(
    model: Any,
    spec: RunSpec,
    index: int,
) -> "RunArtifact":
    if spec.solver is None:
        raise SpecError("spec.solver is required for solve runs")
    total = Stopwatch().start()
    build = Stopwatch().start()
    solver = build_solver(spec.solver, spec.solver_config, seed=spec.seed)
    build.stop()
    run = Stopwatch().start()
    result = solver.solve(model)
    run.stop()
    total.stop()
    return RunArtifact(
        spec=spec,
        result=result,
        timings={
            "build": build.elapsed,
            "run": run.elapsed,
            "total": total.elapsed,
        },
        seed=spec.seed,
        index=index,
    )


# ----------------------------------------------------------------------
# Process-pool worker plumbing (executor="process")
# ----------------------------------------------------------------------
def _worker_initializer(blas_threads: int) -> None:
    """Process-pool initializer: apply the session's BLAS budget.

    Runs in each worker process before it takes its first task and sets
    the worker's OpenBLAS libraries to the session's per-worker
    ``blas_threads`` budget (a forked worker inherits the parent's
    count, a spawned one starts at OpenBLAS's default).
    """
    from repro.api.threads import set_blas_threads

    set_blas_threads(blas_threads)


def _run_chunk(
    kind: str,
    spec_payload: dict[str, Any] | list[dict[str, Any]],
    chunk: list[tuple[int, Any]],
) -> tuple[list[tuple[int, "RunArtifact"]], None]:
    """Process-pool task: run one chunk of inputs sequentially.

    ``chunk`` is a list of ``(index, item)`` pairs — graphs or QUBO
    models, pickled by the executor — carrying each input's position in
    the original batch, so the parent can reassemble results in order
    regardless of which worker ran which chunk.  ``spec_payload`` is
    either one spec dict shared by every entry or a list of spec dicts
    aligned with the chunk (per-item specs).  Returns
    ``(indexed artifacts, None)``.
    """
    if isinstance(spec_payload, list):
        specs = [RunSpec.from_dict(entry) for entry in spec_payload]
    else:
        shared = RunSpec.from_dict(spec_payload)
        specs = [shared] * len(chunk)
    run_one = _detect_one if kind == "detect" else _solve_one
    results = [
        (index, run_one(item, spec, index))
        for (index, item), spec in zip(chunk, specs)
    ]
    return results, None  # still a pair: trace wrappers unpack two values


def _session() -> Session:
    """The process-wide default :class:`repro.api.Session`.

    Imported lazily to break the import cycle: ``repro.api.session``
    imports this module at top level for the per-run execution core,
    so the runner must reach back for the session at call time.
    """
    from repro.api.session import default_session

    return default_session()


def detect(graph: Any, spec: RunSpec | dict[str, Any] | str) -> Any:
    """Run one detection spec on ``graph`` and return a RunArtifact.

    Runs through the process-wide :func:`repro.api.default_session`;
    results are bit-identical to a run through a fresh session.

    Examples
    --------
    >>> from repro.graphs import ring_of_cliques
    >>> graph, _ = ring_of_cliques(3, 5)
    >>> artifact = detect(graph, {
    ...     "solver": "greedy",
    ...     "n_communities": 3,
    ...     "seed": 0,
    ... })
    >>> artifact.result.n_communities
    3
    """
    return _session().detect(graph, spec)


def detect_batch(
    graphs: Sequence[Any],
    spec: RunSpec | dict[str, Any] | str,
    max_workers: int | None = None,
) -> list[Any]:
    """Run one detection spec over many graphs, optionally in parallel.

    Parameters
    ----------
    graphs:
        Input graphs; results preserve this order.
    spec:
        The shared run spec.  Every graph gets its own freshly built,
        identically-seeded detector, so results match single
        :func:`detect` calls regardless of ``max_workers``.
    max_workers:
        Concurrent runs; ``None`` uses the default session's width
        (``min(8, cores)``) and ``1`` runs inline.

    Notes
    -----
    Delegates to :meth:`repro.api.Session.detect_batch` on the
    process-wide default session, whose worker threads persist across
    calls.

    Examples
    --------
    >>> from repro.graphs import ring_of_cliques
    >>> graphs = [ring_of_cliques(3, 5)[0] for _ in range(3)]
    >>> artifacts = detect_batch(graphs, {
    ...     "solver": "greedy",
    ...     "n_communities": 3,
    ...     "seed": 0,
    ... }, max_workers=2)
    >>> [a.index for a in artifacts]
    [0, 1, 2]
    >>> len({a.result.n_communities for a in artifacts})
    1
    """
    return _session().detect_batch(graphs, spec, max_workers=max_workers)


def solve(model: Any, spec: RunSpec | dict[str, Any] | str) -> Any:
    """Run one QUBO solve spec on ``model`` and return a RunArtifact.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.qubo import QuboModel
    >>> model = QuboModel(np.array([[0.0, 2.0], [0.0, 0.0]]), [-1.0, -1.0])
    >>> artifact = solve(model, {"solver": "greedy", "seed": 0})
    >>> artifact.result.energy
    -1.0
    """
    return _session().solve(model, spec)


def solve_batch(
    models: Sequence[Any],
    spec: RunSpec | dict[str, Any] | str,
    max_workers: int | None = None,
) -> list[Any]:
    """Run one solve spec over many QUBO models, optionally in parallel.

    The solve-side counterpart of :func:`detect_batch`: every model
    gets its own freshly built, identically-seeded solver, so the batch
    reproduces the corresponding sequence of single :func:`solve` calls
    for any ``max_workers``.  Runs through the default session's
    persistent thread pool.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.qubo import QuboModel
    >>> models = [
    ...     QuboModel(np.array([[0.0, 2.0], [0.0, 0.0]]), [-1.0, -1.0])
    ...     for _ in range(3)
    ... ]
    >>> artifacts = solve_batch(
    ...     models, {"solver": "greedy", "seed": 0}, max_workers=2)
    >>> [a.result.energy for a in artifacts]
    [-1.0, -1.0, -1.0]
    """
    return _session().solve_batch(models, spec, max_workers=max_workers)
