"""Classical QUBO solvers and the common solver interface.

The branch-and-bound solver is this reproduction's substitute for GUROBI:
an exact solver with a wall-clock time limit that reports ``OPTIMAL`` when
the search tree is exhausted and ``TIME_LIMIT`` with the best incumbent
otherwise — the two statuses the paper's evaluation methodology keys on
(§V-B).  An optional node cap stops it with ``ITERATION_LIMIT`` instead.
"""

from repro.solvers.base import (
    QuboSolver,
    SolveResult,
    SolverStatus,
    batch_flip_state,
    flip_state,
)
from repro.solvers.bruteforce import BruteForceSolver
from repro.solvers.branch_and_bound import BranchAndBoundSolver
from repro.solvers.greedy import GreedySolver, local_search
from repro.solvers.simulated_annealing import SimulatedAnnealingSolver
from repro.solvers.tabu import TabuSolver
from repro.solvers.portfolio import PortfolioOutcome, PortfolioSolver

__all__ = [
    "QuboSolver",
    "SolveResult",
    "SolverStatus",
    "flip_state",
    "batch_flip_state",
    "BruteForceSolver",
    "BranchAndBoundSolver",
    "GreedySolver",
    "local_search",
    "SimulatedAnnealingSolver",
    "TabuSolver",
    "PortfolioSolver",
    "PortfolioOutcome",
]
