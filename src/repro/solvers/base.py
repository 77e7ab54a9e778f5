"""Common interface for all QUBO solvers (classical and quantum-inspired).

Every solver consumes a :class:`repro.qubo.model.BaseQubo` — the dense
:class:`repro.qubo.QuboModel` or the sparse
:class:`repro.qubo.SparseQuboModel` interchangeably, since the hot
operations (``evaluate``, ``local_fields``, ``flip_deltas`` and their
batched forms) are part of the shared interface — and returns a
:class:`SolveResult` carrying the assignment, its energy, a status flag and
wall-clock timing.  The status flags mirror the solver states the paper's
methodology distinguishes: ``OPTIMAL`` (proved), ``TIME_LIMIT`` (incumbent
returned at the deadline) and ``HEURISTIC`` (no optimality claim, the QHD
and metaheuristic case).
"""

from __future__ import annotations

import enum
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.api.config import Configurable
from repro.exceptions import SolverError
from repro.qubo.delta import BatchFlipDeltaState, FlipDeltaState
from repro.qubo.model import BaseQubo
from repro.utils.serialization import to_jsonable


class SolverStatus(enum.Enum):
    """Terminal state of a solve call."""

    OPTIMAL = "optimal"
    TIME_LIMIT = "time_limit"
    HEURISTIC = "heuristic"
    ITERATION_LIMIT = "iteration_limit"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one QUBO solve.

    Attributes
    ----------
    x:
        Best assignment found, int8 vector in {0, 1}.
    energy:
        Energy of ``x`` under the solved model (includes the offset).
    status:
        Terminal :class:`SolverStatus`.
    wall_time:
        Seconds of wall clock consumed.
    solver_name:
        Human-readable solver identifier for reports.
    iterations:
        Solver-specific progress counter (B&B nodes, annealing sweeps,
        QHD time steps, ...).
    metadata:
        Free-form extras (sample counts, bound values, ...).
    """

    x: np.ndarray
    energy: float
    status: SolverStatus
    wall_time: float
    solver_name: str
    iterations: int = 0
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        arr = np.asarray(self.x)
        if arr.ndim != 1:
            raise SolverError(f"x must be 1-D, got shape {arr.shape}")
        if arr.size and not np.all(np.isin(arr, (0, 1))):
            raise SolverError("x must be a binary vector")
        object.__setattr__(self, "x", arr.astype(np.int8))
        if math.isnan(self.energy):
            raise SolverError("energy must not be NaN")

    @property
    def proved_optimal(self) -> bool:
        """Whether the solver proved this assignment optimal."""
        return self.status is SolverStatus.OPTIMAL

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready dict form (arrays -> lists, status -> str)."""
        return {
            "x": self.x.tolist(),
            "energy": float(self.energy),
            "status": self.status.value,
            "wall_time": float(self.wall_time),
            "solver_name": self.solver_name,
            "iterations": int(self.iterations),
            "metadata": to_jsonable(self.metadata),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SolveResult":
        """Rebuild a result from :meth:`to_dict` output."""
        return cls(
            x=np.asarray(data["x"], dtype=np.int8),
            energy=float(data["energy"]),
            status=SolverStatus(data["status"]),
            wall_time=float(data["wall_time"]),
            solver_name=data["solver_name"],
            iterations=int(data.get("iterations", 0)),
            metadata=dict(data.get("metadata", {})),
        )


def flip_state(model: BaseQubo, x: np.ndarray) -> FlipDeltaState:
    """Materialise the incremental flip-delta state for one trajectory.

    The shared entry point of every single-flip sweep loop (simulated
    annealing, tabu, greedy 1-opt): one full
    :class:`~repro.qubo.delta.FlipDeltaState` materialisation per
    restart, then O(coupling-row nnz) per accepted flip and O(1) per
    queried delta — instead of an O(nnz) ``model.flip_deltas`` mat-vec
    per iteration.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.qubo import QuboModel
    >>> model = QuboModel(np.array([[0.0, 2.0], [0.0, 0.0]]), [-1.0, -1.0])
    >>> state = flip_state(model, np.zeros(2))
    >>> state.flip(state.best_flip()[0])
    -1.0
    """
    return FlipDeltaState(model, x)


def batch_flip_state(model: BaseQubo, xs: np.ndarray) -> BatchFlipDeltaState:
    """Batched :func:`flip_state`: one trajectory per row of ``xs``.

    Used by the vectorised 1-opt descent behind the QHD refinement pass
    (:func:`repro.solvers.greedy.local_search_batch`).
    """
    return BatchFlipDeltaState(model, xs)


class QuboSolver(Configurable, ABC):
    """Abstract base class of every QUBO solver in the library."""

    #: Identifier used in reports and experiment tables.
    name: str = "solver"

    @abstractmethod
    def solve(self, model: BaseQubo) -> SolveResult:
        """Minimise ``model`` and return a :class:`SolveResult`."""

    def _validate_model(self, model: BaseQubo) -> BaseQubo:
        if not isinstance(model, BaseQubo):
            raise SolverError(
                f"{self.name} expects a BaseQubo model (QuboModel or "
                f"SparseQuboModel), got {type(model).__name__}"
            )
        if model.n_variables == 0:
            raise SolverError("cannot solve a QUBO with zero variables")
        return model

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
