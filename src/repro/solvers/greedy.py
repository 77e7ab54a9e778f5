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
from repro.qubo.delta import _RowwiseBatchFlipDeltaState
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


def local_search_rows(
    model: QuboModel,
    starts: np.ndarray,
    max_sweeps: int = 100,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One :func:`local_search` per row of ``starts``, descended at once.

    Returns exactly what calling :func:`local_search` on each row in
    turn returns, bit for bit, from one batched descent.  Each row's
    fields come from ``model.local_fields(row)`` (the state behind it
    is a row-wise :class:`~repro.qubo.delta.BatchFlipDeltaState`), the
    descent flips every row as the single search would, and each
    final row's energy is ``model.evaluate(row)``.  The batched
    products :func:`local_search_batch` uses can differ from these in
    the last bits, enough to break an exact tie the other way.

    Returns
    -------
    (xs_local, energies, sweeps):
        int8 local minima, their energies and each row's sweep count,
        in the order of ``starts``.
    """
    check_integer(max_sweeps, "max_sweeps", minimum=1)
    if np.ndim(starts) != 2:
        raise ValueError(f"starts must be 2-D, got shape {np.shape(starts)}")
    state = _RowwiseBatchFlipDeltaState(model, starts)
    state.descend(max_sweeps)
    result = state.x
    energies = np.array([model.evaluate(x) for x in result])
    return result.astype(np.int8), energies, state.descent_flips.copy()


def _one_hot_violations(
    starts: np.ndarray, n_nodes: int, k: int
) -> np.ndarray:
    """``Σ_i |Σ_c x[i·k + c] − 1|`` per row: Eq. 3's violation count."""
    counts = starts.reshape(len(starts), n_nodes, k).sum(axis=2)
    return np.abs(counts - 1).sum(axis=1)


@SOLVERS.register("greedy")
class GreedySolver(QuboSolver):
    """Greedy construction + 1-opt local search with random restarts.

    The first restart is :func:`greedy_construct` followed by
    :func:`local_search`.  The other ``n_restarts - 1`` start from
    uniformly random bitstrings, drawn in one call.  On a model with
    :meth:`~repro.qubo.BaseQubo.one_hot_blocks` (a community QUBO),
    only the starts whose Eq. 3 violation count
    ``Σ_i |Σ_c x[i·k + c] − 1|`` is at most ``max_sweeps`` are kept:
    one flip changes that count by at most one, so any other start
    would end its descent still violating the exactly-one constraint.
    On every other model all starts are kept.  The kept starts descend
    together through :func:`local_search_rows` (the same local minima,
    energies and sweep counts as one :func:`local_search` per start),
    are folded in order, and replace the incumbent only when their
    energy is strictly lower.

    ``metadata["restarts"]`` counts the descents run, the construct's
    included, and ``iterations`` sums their sweeps.

    Parameters
    ----------
    n_restarts:
        Restarts drawn (the first uses the greedy construction).
    max_sweeps:
        1-opt sweeps per restart.
    time_limit:
        Optional wall-clock budget, checked once after the first
        restart.  If it is exhausted by then, the random restarts are
        skipped and the result reports ``TIME_LIMIT`` with
        ``metadata["restarts"] == 1``; otherwise every kept restart
        runs to completion and the result reports ``HEURISTIC``,
        however many starts were not kept.  A budget that expires
        during the random restarts does not stop them.
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
        skipped = self.n_restarts > 1 and budget.exhausted()
        if self.n_restarts > 1 and not skipped:
            starts = rng.random((self.n_restarts - 1, n)) < 0.5
            blocks = model.one_hot_blocks()
            if blocks is not None:
                violations = _one_hot_violations(starts, *blocks)
                starts = starts[violations <= self.max_sweeps]
            restarts_run += len(starts)
            if len(starts):
                xs, energies, sweeps = local_search_rows(
                    model, starts, self.max_sweeps
                )
                total_sweeps += int(sweeps.sum())
                for x, energy in zip(xs, energies.tolist()):
                    if energy < best_energy:
                        best_x, best_energy = x, energy
        watch.stop()
        status = (
            SolverStatus.TIME_LIMIT if skipped else SolverStatus.HEURISTIC
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
