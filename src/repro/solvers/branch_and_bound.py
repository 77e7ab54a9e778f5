"""Branch-and-bound QUBO solver — this reproduction's GUROBI substitute.

The paper's evaluation (§V-B) uses GUROBI purely as *an exact solver with a
wall-clock time limit*: on small instances it proves optimality (status
``OPTIMAL``); on instances beyond ~10^3 variables it returns its incumbent
at the deadline (status ``TIME_LIMIT``).  This solver reproduces that
interface and qualitative scaling with a classical DFS branch & bound:

* canonical energy ``E(x) = x^T S x + c^T x + offset`` with symmetric
  zero-diagonal ``S``;
* dynamic value ordering (greedy-first dives find strong incumbents early);
* lower bound per node from independent term minimisation:
  ``acc + sum_i min(0, c_eff_i) + 1/2 sum_i negsum_i`` over free variables,
  where ``negsum_i = sum_j min(0, 2 S_ij)`` is maintained incrementally;
* warm start from greedy construction + 1-opt local search;
* wall-clock deadline polled every few hundred nodes.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.api.registry import SOLVERS
from repro.qubo.model import QuboModel
from repro.solvers.base import QuboSolver, SolveResult, SolverStatus
from repro.solvers.greedy import greedy_construct, local_search
from repro.utils.timer import Stopwatch, TimeBudget
from repro.utils.validation import (
    check_integer,
    check_positive,
    check_time_limit,
)


@SOLVERS.register("branch-and-bound")
class BranchAndBoundSolver(QuboSolver):
    """Exact QUBO solver with a time limit and incumbent reporting.

    Parameters
    ----------
    time_limit:
        Wall-clock budget in seconds (``float('inf')`` for unlimited).
    max_nodes:
        Optional cap on explored nodes, so a budget can be counted in
        work rather than seconds.  A search it stops reports
        ``ITERATION_LIMIT``; one the deadline stops, ``TIME_LIMIT``.
    tolerance:
        Pruning slack: nodes whose bound is within ``tolerance`` of the
        incumbent are pruned, so returned "optimal" energies are optimal up
        to ``tolerance``.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.qubo import QuboModel
    >>> model = QuboModel(np.array([[0.0, 2.0], [0.0, 0.0]]), [-1.0, -1.0])
    >>> result = BranchAndBoundSolver(time_limit=10.0).solve(model)
    >>> result.status.value
    'optimal'
    >>> result.energy
    -1.0
    """

    name = "branch-and-bound"

    #: Nodes between deadline polls.
    _TIME_CHECK_INTERVAL = 256

    def __init__(
        self,
        time_limit: float | None = float("inf"),
        max_nodes: int | None = None,
        tolerance: float = 1e-9,
    ) -> None:
        self.time_limit = check_time_limit(time_limit)
        self.max_nodes = (
            None
            if max_nodes is None
            else check_integer(max_nodes, "max_nodes", minimum=1)
        )
        self.tolerance = check_positive(tolerance, "tolerance")

    def solve(self, model: QuboModel) -> SolveResult:
        model = self._validate_model(model)
        # Branch & bound is the one solver that *must* densify: its
        # incremental column updates (_fix/_unfix) touch whole coupling
        # columns, which is dense by nature.  BaseQubo.to_dense() is a
        # no-op on already-dense models and an explicit, documented
        # materialisation for sparse ones.
        model = model.to_dense()
        watch = Stopwatch().start()
        budget = TimeBudget(self.time_limit)
        n = model.n_variables

        coupling2 = 2.0 * np.asarray(model.coupling)
        neg_coupling2 = np.minimum(0.0, coupling2)
        base_linear = np.asarray(model.effective_linear)

        # Warm start: greedy construction + 1-opt polish.
        incumbent_x = greedy_construct(model)
        incumbent_x, incumbent_energy, _ = local_search(model, incumbent_x)
        incumbent_x = incumbent_x.astype(np.int8)

        # Static branching order: most influential variables first.
        influence = np.abs(base_linear) + np.abs(coupling2).sum(axis=1)
        order = np.argsort(-influence, kind="stable").astype(np.int64)

        # Mutable search state (undo-based DFS).
        free = np.ones(n, dtype=bool)
        c_eff = base_linear.copy()
        negsum = neg_coupling2.sum(axis=1)  # over all j != i (diag is 0)
        state = _SearchState(
            model=model,
            coupling2=coupling2,
            neg_coupling2=neg_coupling2,
            free=free,
            c_eff=c_eff,
            negsum=negsum,
            order=order,
            budget=budget,
            tolerance=self.tolerance,
            max_nodes=self.max_nodes,
            incumbent_x=incumbent_x,
            incumbent_energy=float(incumbent_energy),
        )

        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, 4 * n + 1000))
        try:
            completed = state.search(
                depth=0,
                acc=float(model.offset),
                assignment=np.zeros(n, dtype=np.int8),
            )
        finally:
            sys.setrecursionlimit(old_limit)
        watch.stop()

        status = state.stopped or SolverStatus.OPTIMAL
        return SolveResult(
            x=state.incumbent_x,
            energy=state.incumbent_energy,
            status=status,
            wall_time=watch.elapsed,
            solver_name=self.name,
            iterations=state.nodes,
            metadata={
                "time_limit": self.time_limit,
                "completed": completed,
                "warm_start_energy": float(incumbent_energy),
            },
        )


class _SearchState:
    """Mutable DFS state shared across the recursion (undo log style)."""

    def __init__(
        self,
        model: QuboModel,
        coupling2: np.ndarray,
        neg_coupling2: np.ndarray,
        free: np.ndarray,
        c_eff: np.ndarray,
        negsum: np.ndarray,
        order: np.ndarray,
        budget: TimeBudget,
        tolerance: float,
        max_nodes: int | None,
        incumbent_x: np.ndarray,
        incumbent_energy: float,
    ) -> None:
        self.model = model
        self.coupling2 = coupling2
        self.neg_coupling2 = neg_coupling2
        self.free = free
        self.c_eff = c_eff
        self.negsum = negsum
        self.order = order
        self.budget = budget
        self.tolerance = tolerance
        self.max_nodes = max_nodes
        self.incumbent_x = incumbent_x
        self.incumbent_energy = incumbent_energy
        self.nodes = 0
        #: Why the search stopped early (``None`` while it may finish).
        self.stopped: SolverStatus | None = None

    # ------------------------------------------------------------------
    def lower_bound(self, acc: float) -> float:
        """Per-variable relaxation bound at the current node.

        For x in [0, 1]^F:  E_rest >= sum_i x_i (c_i + negsum_i / 2)
        because sum_j x_j 2S_ij >= negsum_i, hence
        E_rest >= sum_i min(0, c_i + negsum_i / 2) — strictly tighter than
        bounding the linear and pairwise terms independently.
        """
        free = self.free
        per_var = self.c_eff[free] + 0.5 * self.negsum[free]
        return acc + np.minimum(0.0, per_var).sum()

    def _next_variable(self) -> int:
        """First free variable in the static influence order."""
        for var in self.order:
            if self.free[var]:
                return int(var)
        return -1

    def _fix(self, var: int, value: int, acc: float) -> float:
        """Fix ``var`` and return the new accumulated energy."""
        self.free[var] = False
        # Removing var from the free set removes its pairwise-min terms.
        self.negsum -= self.neg_coupling2[:, var]
        if value == 1:
            acc += float(self.c_eff[var])
            self.c_eff += self.coupling2[:, var]
        return acc

    def _unfix(self, var: int, value: int) -> None:
        """Undo :meth:`_fix`."""
        if value == 1:
            self.c_eff -= self.coupling2[:, var]
        self.negsum += self.neg_coupling2[:, var]
        self.free[var] = True

    # ------------------------------------------------------------------
    def search(
        self, depth: int, acc: float, assignment: np.ndarray
    ) -> bool:
        """DFS from the current node; returns False when aborted."""
        self.nodes += 1
        if self.nodes % BranchAndBoundSolver._TIME_CHECK_INTERVAL == 0:
            if self.budget.exhausted():
                self.stopped = SolverStatus.TIME_LIMIT
        if self.max_nodes is not None and self.nodes >= self.max_nodes:
            self.stopped = SolverStatus.ITERATION_LIMIT
        if self.stopped is not None:
            return False

        var = self._next_variable()
        if var < 0:  # leaf: every variable fixed
            if acc < self.incumbent_energy - self.tolerance:
                self.incumbent_energy = acc
                self.incumbent_x = assignment.copy()
            return True

        if self.lower_bound(acc) >= self.incumbent_energy - self.tolerance:
            return True  # pruned

        # Greedy-first value ordering: dive towards the locally better value.
        first = 1 if self.c_eff[var] < 0 else 0
        completed = True
        for value in (first, 1 - first):
            new_acc = self._fix(var, value, acc)
            assignment[var] = value
            try:
                bound = self.lower_bound(new_acc)
                if bound < self.incumbent_energy - self.tolerance:
                    if not self.search(depth + 1, new_acc, assignment):
                        completed = False
            finally:
                assignment[var] = 0
                self._unfix(var, value)
            if self.stopped is not None:
                completed = False
                break
        return completed
