"""Tabu search for QUBO.

A deterministic-given-seed single-flip tabu search with recency-based
memory and aspiration (a tabu flip is allowed when it would beat the best
energy seen).  Tabu search is the strongest simple classical heuristic for
QUBO and provides a demanding non-exact baseline alongside branch & bound.
"""

from __future__ import annotations

import numpy as np

from repro.api.registry import SOLVERS
from repro.qubo.model import QuboModel
from repro.solvers.base import (
    QuboSolver,
    SolveResult,
    SolverStatus,
    flip_state,
)
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.timer import Stopwatch, TimeBudget
from repro.utils.validation import check_integer, check_time_limit


@SOLVERS.register("tabu")
class TabuSolver(QuboSolver):
    """Single-flip tabu search with aspiration.

    Parameters
    ----------
    n_iterations:
        Total flips to perform (across the single trajectory).
    tenure:
        Iterations a flipped variable stays tabu; ``None`` selects
        ``max(10, n // 10)`` at solve time.
    time_limit:
        Optional wall-clock budget.
    """

    name = "tabu"

    def __init__(
        self,
        n_iterations: int = 2000,
        tenure: int | None = None,
        time_limit: float | None = float("inf"),
        seed: SeedLike = None,
    ) -> None:
        self.n_iterations = check_integer(
            n_iterations, "n_iterations", minimum=1
        )
        self.tenure = (
            None if tenure is None else check_integer(tenure, "tenure", minimum=1)
        )
        self.time_limit = check_time_limit(time_limit)
        self._seed = seed

    def solve(self, model: QuboModel) -> SolveResult:
        model = self._validate_model(model)
        rng = ensure_rng(self._seed)
        watch = Stopwatch().start()
        budget = TimeBudget(self.time_limit)
        n = model.n_variables
        tenure = self.tenure or max(10, n // 10)

        x = (rng.random(n) < 0.5).astype(np.float64)
        # One full delta materialisation per trajectory; each iteration
        # below runs the fused argmin over the maintained fields (no
        # O(n) deltas() copy) and each accepted flip applies an
        # O(row nnz) incremental update instead of a fresh
        # model.flip_deltas mat-vec.
        state = flip_state(model, x)
        energy = state.energy
        best_x = x.astype(np.int8)
        best_energy = energy
        tabu_until = np.zeros(n, dtype=np.int64)
        hit_deadline = False

        iteration = 0
        for iteration in range(1, self.n_iterations + 1):
            # Fused aspiration: if the global best flip would beat the
            # incumbent it is aspiring (hence a candidate) and, being
            # the global minimum, it is also the masked argmin — no
            # tabu mask needs to be applied.  Otherwise *no* flip
            # aspires (every delta is >= the global minimum), so the
            # candidate set is exactly the non-tabu moves.  Ties break
            # to the lowest index on both paths, like the copying loop.
            var, delta = state.best_flip()
            if not (energy + delta) < (best_energy - 1e-12):
                allowed = tabu_until < iteration
                if not np.any(allowed):
                    break  # everything tabu and nothing aspires: stuck
                var, delta = state.best_flip(where=allowed)
            state.flip(var)
            energy = state.energy
            tabu_until[var] = iteration + tenure
            if energy < best_energy - 1e-12:
                best_energy = energy
                best_x = state.x.astype(np.int8)
            if iteration % 64 == 0 and budget.exhausted():
                hit_deadline = True
                break

        best_energy = model.evaluate(best_x.astype(np.float64))
        watch.stop()
        status = (
            SolverStatus.TIME_LIMIT if hit_deadline else SolverStatus.HEURISTIC
        )
        return SolveResult(
            x=best_x,
            energy=best_energy,
            status=status,
            wall_time=watch.elapsed,
            solver_name=self.name,
            iterations=iteration,
            metadata={"tenure": tenure},
        )
