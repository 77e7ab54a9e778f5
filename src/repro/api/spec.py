"""Declarative run specifications and structured run artifacts.

A :class:`RunSpec` is the JSON-serialisable description of one
detection/solve configuration — which detector, which solver, their
config dicts, the community count and the seed.  It is the unit the
``repro.api`` facade consumes (:func:`repro.api.detect`,
:func:`repro.api.detect_batch`, ``repro detect --spec spec.json``) and
the unit experiments should persist for reproducibility.

A :class:`RunArtifact` is the structured outcome of executing one spec
on one input: the spec itself, the result object, wall-clock timings and
the effective seed, all JSON-serialisable via :meth:`RunArtifact.to_dict`.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.exceptions import ReproError
from repro.utils.serialization import to_jsonable
from repro.utils.validation import check_integer


class SpecError(ReproError):
    """Raised for malformed run specifications."""


@dataclass(frozen=True)
class RunSpec:
    """One reproducible run configuration.

    Attributes
    ----------
    detector:
        Registered detector name (see ``repro.api.DETECTORS``).
    detector_config:
        Config dict for the detector's ``from_config``.
    solver:
        Registered solver name; ``None`` keeps the detector's default
        (QHD).  Ignored when ``detector_config`` already pins a
        ``"solver"`` entry.
    solver_config:
        Config dict for the solver's ``from_config``; only valid
        together with ``solver`` (a detector's built-in default solver
        is not configurable through it).
    n_communities:
        Community count ``k`` for detection runs (optional for pure
        QUBO solves); ``None`` or an integer ``>= 1``.
    seed:
        Run seed, injected into solver/detector configs that accept a
        ``seed`` key and do not already set one; ``None`` or an integer
        ``>= 0``.

    Examples
    --------
    >>> spec = RunSpec.from_dict({
    ...     "detector": "qhd",
    ...     "solver": "simulated-annealing",
    ...     "solver_config": {"n_sweeps": 50},
    ...     "n_communities": 3,
    ...     "seed": 7,
    ... })
    >>> spec.solver
    'simulated-annealing'
    """

    detector: str = "qhd"
    detector_config: dict[str, Any] = field(default_factory=dict)
    solver: str | None = None
    solver_config: dict[str, Any] = field(default_factory=dict)
    n_communities: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.detector, str) or not self.detector:
            raise SpecError("detector must be a non-empty name string")
        for label in ("detector_config", "solver_config"):
            if not isinstance(getattr(self, label), dict):
                raise SpecError(f"{label} must be a dict")
        if self.solver is None and self.solver_config:
            raise SpecError(
                "solver_config requires a solver name: without one the "
                "detector builds its own default solver and the config "
                "would be silently dropped"
            )
        for label, minimum in (("n_communities", 1), ("seed", 0)):
            value = getattr(self, label)
            if value is not None:
                try:
                    check_integer(value, label, minimum=minimum)
                except (TypeError, ValueError) as error:
                    raise SpecError(str(error)) from None

    # ------------------------------------------------------------------
    # Round-trips
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunSpec":
        """Build a spec from a plain dict, rejecting unknown keys."""
        if not isinstance(data, dict):
            raise SpecError(
                f"spec must be a dict, got {type(data).__name__}"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise SpecError(
                f"unknown spec keys: {unknown}; "
                f"known keys: {sorted(known)}"
            )
        return cls(**data)

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form; inverse of :meth:`from_dict`."""
        return {
            "detector": self.detector,
            "detector_config": to_jsonable(self.detector_config),
            "solver": self.solver,
            "solver_config": to_jsonable(self.solver_config),
            "n_communities": self.n_communities,
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        """Parse a spec from its JSON text form."""
        return cls.from_dict(json.loads(text))

    def to_json(self, indent: int | None = 2) -> str:
        """JSON text form; inverse of :meth:`from_json`."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_file(cls, path: str | Path) -> "RunSpec":
        """Load a spec from a JSON file."""
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    def replace(self, **changes: Any) -> "RunSpec":
        """A copy of the spec with ``changes`` applied."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class RunArtifact:
    """Structured outcome of executing one :class:`RunSpec`.

    Attributes
    ----------
    spec:
        The spec that produced this run.
    result:
        :class:`repro.community.CommunityResult` for detection runs or
        :class:`repro.solvers.SolveResult` for solve runs.
    timings:
        Wall-clock breakdown in seconds (``build`` — component
        construction, ``run`` — the solve/detect call, ``total``).
    seed:
        Effective run seed (the spec's, echoed for provenance).
    index:
        Position of the input within a batch (0 for single runs).

    Examples
    --------
    >>> import json
    >>> import numpy as np
    >>> import repro.api as api
    >>> from repro.qubo import QuboModel
    >>> model = QuboModel(np.zeros((2, 2)), [-1.0, 1.0])
    >>> artifact = api.solve(model, {"solver": "greedy", "seed": 0})
    >>> sorted(artifact.timings)
    ['build', 'run', 'total']
    >>> json.loads(artifact.to_json())["spec"]["solver"]
    'greedy'
    """

    spec: RunSpec
    result: Any
    timings: dict[str, float] = field(default_factory=dict)
    seed: int | None = None
    index: int = 0

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready dict: spec + result + timings + seed."""
        return {
            "spec": self.spec.to_dict(),
            "result": to_jsonable(self.result),
            "timings": {k: float(v) for k, v in self.timings.items()},
            "seed": self.seed,
            "index": self.index,
        }

    def to_json(self, indent: int | None = 2) -> str:
        """JSON text of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent)
