"""Greedy construction and 1-opt local search for QUBO.

These are the classical refinement primitives shared across the library:
branch & bound warm-starts from them, the QHD solver polishes measured
samples with :func:`local_search` (mirroring QHDOPT's classical
post-processing step, paper §IV-A), and :class:`GreedySolver` exposes the
combination as a standalone baseline.
"""

from __future__ import annotations

import numpy as np

from repro.api.registry import SOLVERS
from repro.qubo.model import QuboModel
from repro.solvers.base import (
    QuboSolver,
    SolveResult,
    SolverStatus,
    batch_flip_state,
    flip_state,
)
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.timer import Stopwatch, TimeBudget
from repro.utils.validation import check_integer, check_time_limit


def greedy_construct(model: QuboModel) -> np.ndarray:
    """Build an assignment by repeatedly setting the most-improving bit.

    Starts from all-zeros and flips the single bit with the most negative
    energy delta until no flip improves — a deterministic construction
    that lands in a 1-opt local minimum.  Deltas are maintained
    incrementally (one materialisation, O(row nnz) per accepted flip),
    so each step costs one fused ``best_flip`` argmin over the
    maintained fields — no per-step ``deltas()`` copy, no mat-vec.
    """
    n = model.n_variables
    state = flip_state(model, np.zeros(n, dtype=np.float64))
    for _ in range(2 * n):
        best, delta = state.best_flip()
        if delta >= -1e-12:
            break
        state.flip(best)
    return state.x.astype(np.int8)


def local_search(
    model: QuboModel,
    x: np.ndarray,
    max_sweeps: int = 100,
) -> tuple[np.ndarray, float, int]:
    """Steepest-descent 1-opt local search from ``x``.

    Each sweep flips the single best-improving bit until a local
    minimum.  The flip deltas come from an incrementally maintained
    :class:`~repro.qubo.delta.FlipDeltaState` (one materialisation at
    ``x``, O(row nnz) per accepted flip); each sweep runs the fused
    ``best_flip`` argmin over the maintained fields instead of
    allocating a fresh delta array or paying a ``model.flip_deltas``
    mat-vec.

    Returns
    -------
    (x_local, energy, sweeps):
        The 1-opt local minimum reached, its energy and the sweep count.
    """
    check_integer(max_sweeps, "max_sweeps", minimum=1)
    state = flip_state(model, np.asarray(x, dtype=np.float64))
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        best, delta = state.best_flip()
        if delta >= -1e-12:
            sweeps -= 1
            break
        state.flip(best)
    current = state.x
    return current.astype(np.int8), model.evaluate(current), sweeps


def local_search_batch(
    model: QuboModel,
    xs: np.ndarray,
    max_sweeps: int = 100,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised 1-opt descent on a whole batch of assignments at once.

    Every sweep flips each still-improving row's best bit, found by the
    fused argmin of an incrementally maintained
    :class:`~repro.qubo.delta.BatchFlipDeltaState` — one field
    materialisation up front, then O(row nnz) per accepted flip instead
    of a full batch mat-vec.  A row that stops improving leaves the
    working set (:meth:`~repro.qubo.delta.BatchFlipDeltaState.descend`),
    so late sweeps touch only the rows still descending.  Used by the
    QHD solver to refine all measurement samples simultaneously.

    Returns
    -------
    (xs_local, energies): refined int8 assignments and their energies,
    in the order of ``xs``.
    """
    check_integer(max_sweeps, "max_sweeps", minimum=1)
    batch = np.asarray(xs, dtype=np.float64)
    if batch.ndim != 2:
        raise ValueError(f"xs must be 2-D, got shape {batch.shape}")
    state = batch_flip_state(model, batch)
    state.descend(max_sweeps)
    result = state.x
    return result.astype(np.int8), model.evaluate_batch(result)


@SOLVERS.register("greedy")
class GreedySolver(QuboSolver):
    """Greedy construction + 1-opt local search with random restarts.

    Parameters
    ----------
    n_restarts:
        Independent restarts (the first uses the greedy construction).
    max_sweeps:
        1-opt sweeps per restart.
    time_limit:
        Optional wall-clock budget; remaining restarts are skipped once
        it is exhausted and the result reports ``TIME_LIMIT``.
    """

    name = "greedy"

    def __init__(
        self,
        n_restarts: int = 8,
        max_sweeps: int = 100,
        time_limit: float | None = float("inf"),
        seed: SeedLike = None,
    ) -> None:
        self.n_restarts = check_integer(n_restarts, "n_restarts", minimum=1)
        self.max_sweeps = check_integer(max_sweeps, "max_sweeps", minimum=1)
        self.time_limit = check_time_limit(time_limit)
        self._seed = seed

    def solve(self, model: QuboModel) -> SolveResult:
        model = self._validate_model(model)
        rng = ensure_rng(self._seed)
        watch = Stopwatch().start()
        budget = TimeBudget(self.time_limit)
        n = model.n_variables

        best_x = greedy_construct(model)
        best_x, best_energy, total_sweeps = local_search(
            model, best_x, self.max_sweeps
        )
        restarts_run = 1
        for _ in range(self.n_restarts - 1):
            if budget.exhausted():
                break
            start = (rng.random(n) < 0.5).astype(np.float64)
            x, energy, sweeps = local_search(model, start, self.max_sweeps)
            total_sweeps += sweeps
            restarts_run += 1
            if energy < best_energy:
                best_x, best_energy = x, energy
        watch.stop()
        status = (
            SolverStatus.TIME_LIMIT
            if restarts_run < self.n_restarts
            else SolverStatus.HEURISTIC
        )
        return SolveResult(
            x=best_x,
            energy=best_energy,
            status=status,
            wall_time=watch.elapsed,
            solver_name=self.name,
            iterations=total_sweeps,
            metadata={"restarts": restarts_run},
        )
