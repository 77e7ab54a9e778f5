"""Tests for the classical QUBO solver suite."""

import numpy as np
import pytest

from repro.exceptions import SolverError
from repro.qubo.model import QuboModel
from repro.qubo.random_instances import random_qubo
from repro.solvers.base import QuboSolver, SolveResult, SolverStatus
from repro.solvers.branch_and_bound import BranchAndBoundSolver
from repro.solvers.bruteforce import BruteForceSolver
from repro.solvers.greedy import (
    GreedySolver,
    greedy_construct,
    local_search,
    local_search_batch,
)
from repro.solvers.simulated_annealing import SimulatedAnnealingSolver
from repro.solvers.tabu import TabuSolver


ALL_SOLVERS = [
    BruteForceSolver(),
    BranchAndBoundSolver(time_limit=30.0),
    GreedySolver(seed=0),
    SimulatedAnnealingSolver(n_sweeps=80, n_restarts=2, seed=0),
    TabuSolver(n_iterations=500, seed=0),
]


class TestSolveResult:
    def test_rejects_non_binary(self):
        with pytest.raises(SolverError, match="binary"):
            SolveResult(
                x=np.array([0, 2]),
                energy=0.0,
                status=SolverStatus.HEURISTIC,
                wall_time=0.0,
                solver_name="t",
            )

    def test_rejects_nan_energy(self):
        with pytest.raises(SolverError, match="NaN"):
            SolveResult(
                x=np.array([0, 1]),
                energy=float("nan"),
                status=SolverStatus.HEURISTIC,
                wall_time=0.0,
                solver_name="t",
            )

    def test_rejects_2d(self):
        with pytest.raises(SolverError):
            SolveResult(
                x=np.zeros((2, 2)),
                energy=0.0,
                status=SolverStatus.HEURISTIC,
                wall_time=0.0,
                solver_name="t",
            )

    def test_proved_optimal_flag(self):
        result = SolveResult(
            x=np.array([1]),
            energy=0.0,
            status=SolverStatus.OPTIMAL,
            wall_time=0.0,
            solver_name="t",
        )
        assert result.proved_optimal

    def test_x_cast_to_int8(self):
        result = SolveResult(
            x=np.array([1.0, 0.0]),
            energy=0.0,
            status=SolverStatus.HEURISTIC,
            wall_time=0.0,
            solver_name="t",
        )
        assert result.x.dtype == np.int8


class TestCommonSolverBehaviour:
    @pytest.mark.parametrize(
        "solver", ALL_SOLVERS, ids=lambda s: s.name
    )
    def test_solves_trivial_optimum(self, solver, small_qubo):
        result = solver.solve(small_qubo)
        assert result.energy == -1.0

    @pytest.mark.parametrize(
        "solver", ALL_SOLVERS, ids=lambda s: s.name
    )
    def test_energy_matches_x(self, solver, random_qubo_12):
        result = solver.solve(random_qubo_12)
        assert np.isclose(
            result.energy, random_qubo_12.evaluate(result.x.astype(float))
        )

    @pytest.mark.parametrize(
        "solver", ALL_SOLVERS, ids=lambda s: s.name
    )
    def test_rejects_non_model(self, solver):
        with pytest.raises(SolverError):
            solver.solve("not a model")

    def test_repr(self):
        assert "branch-and-bound" in repr(BranchAndBoundSolver())


class TestBruteForce:
    def test_optimal_status(self, random_qubo_12):
        result = BruteForceSolver().solve(random_qubo_12)
        assert result.status is SolverStatus.OPTIMAL
        assert result.iterations == 2**12

    def test_cap(self):
        model = random_qubo(30, 0.1, seed=0)
        with pytest.raises(Exception):
            BruteForceSolver(max_variables=20).solve(model)


class TestBranchAndBound:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force(self, seed):
        model = random_qubo(13, 0.4, seed=seed)
        exact = BruteForceSolver().solve(model)
        result = BranchAndBoundSolver(time_limit=30.0).solve(model)
        assert result.status is SolverStatus.OPTIMAL
        assert np.isclose(result.energy, exact.energy, atol=1e-7)

    def test_matches_brute_force_dense(self):
        model = random_qubo(12, 0.9, seed=99)
        exact = BruteForceSolver().solve(model)
        result = BranchAndBoundSolver(time_limit=30.0).solve(model)
        assert np.isclose(result.energy, exact.energy, atol=1e-7)

    def test_time_limit_returns_incumbent(self):
        model = random_qubo(150, 0.2, seed=1)
        result = BranchAndBoundSolver(time_limit=0.05).solve(model)
        assert result.status is SolverStatus.TIME_LIMIT
        assert result.energy <= 0.0 or result.x.sum() >= 0  # sane output

    def test_node_cap(self):
        model = random_qubo(40, 0.5, seed=2)
        result = BranchAndBoundSolver(max_nodes=100).solve(model)
        assert result.iterations <= 101
        assert result.status is SolverStatus.ITERATION_LIMIT

    def test_incumbent_never_worse_than_warm_start(self):
        model = random_qubo(60, 0.3, seed=3)
        result = BranchAndBoundSolver(time_limit=0.2).solve(model)
        assert (
            result.energy
            <= result.metadata["warm_start_energy"] + 1e-9
        )

    def test_deterministic(self):
        model = random_qubo(25, 0.3, seed=4)
        a = BranchAndBoundSolver(time_limit=30.0).solve(model)
        b = BranchAndBoundSolver(time_limit=30.0).solve(model)
        assert a.energy == b.energy
        np.testing.assert_array_equal(a.x, b.x)

    def test_single_variable(self):
        model = QuboModel(np.zeros((1, 1)), np.array([-1.0]))
        result = BranchAndBoundSolver().solve(model)
        assert result.energy == -1.0
        assert result.x[0] == 1


class TestGreedy:
    def test_construct_is_local_minimum(self, random_qubo_12):
        x = greedy_construct(random_qubo_12)
        deltas = random_qubo_12.flip_deltas(x.astype(float))
        assert deltas.min() >= -1e-9

    def test_local_search_descends(self, random_qubo_12):
        start = np.ones(12)
        x, energy, sweeps = local_search(random_qubo_12, start)
        assert energy <= random_qubo_12.evaluate(start)
        assert sweeps >= 0

    def test_local_search_batch_matches_single(self, random_qubo_12):
        rng = np.random.default_rng(0)
        starts = rng.integers(0, 2, size=(6, 12)).astype(float)
        batch_x, batch_e = local_search_batch(random_qubo_12, starts)
        for start, be in zip(starts, batch_e):
            _, single_e, _ = local_search(random_qubo_12, start)
            # Batch flips the same best-improvement moves.
            assert np.isclose(be, single_e)

    def test_batch_rejects_1d(self, random_qubo_12):
        with pytest.raises(ValueError):
            local_search_batch(random_qubo_12, np.zeros(12))

    def test_solver_quality(self):
        model = random_qubo(16, 0.5, seed=5)
        exact = BruteForceSolver().solve(model)
        result = GreedySolver(n_restarts=16, seed=0).solve(model)
        gap = result.energy - exact.energy
        assert gap <= abs(exact.energy) * 0.1

    def test_time_limit_status(self):
        """An exhausted budget keeps the construct's 1-opt result only."""
        model = random_qubo(60, 0.3, seed=12)
        result = GreedySolver(
            n_restarts=8, time_limit=1e-9, seed=0
        ).solve(model)
        x, energy, sweeps = local_search(model, greedy_construct(model))
        assert result.status is SolverStatus.TIME_LIMIT
        assert result.metadata == {"restarts": 1}
        np.testing.assert_array_equal(result.x, x)
        assert result.energy == energy
        assert result.iterations == sweeps

    def test_default_budget_runs_every_restart(self):
        model = random_qubo(60, 0.3, seed=12)
        result = GreedySolver(n_restarts=8, seed=0).solve(model)
        assert result.status is SolverStatus.HEURISTIC
        assert result.metadata == {"restarts": 8}


class TestSimulatedAnnealing:
    def test_near_optimal_small(self):
        model = random_qubo(14, 0.4, seed=6)
        exact = BruteForceSolver().solve(model)
        result = SimulatedAnnealingSolver(
            n_sweeps=300, n_restarts=4, seed=0
        ).solve(model)
        assert result.energy <= exact.energy + abs(exact.energy) * 0.05

    def test_time_limit_status(self):
        model = random_qubo(80, 0.2, seed=7)
        result = SimulatedAnnealingSolver(
            n_sweeps=100000, n_restarts=1, time_limit=0.05, seed=0
        ).solve(model)
        assert result.status is SolverStatus.TIME_LIMIT

    def test_reproducible(self, random_qubo_12):
        a = SimulatedAnnealingSolver(seed=9).solve(random_qubo_12)
        b = SimulatedAnnealingSolver(seed=9).solve(random_qubo_12)
        assert a.energy == b.energy

    def test_explicit_t_initial(self, random_qubo_12):
        result = SimulatedAnnealingSolver(
            t_initial=5.0, seed=0
        ).solve(random_qubo_12)
        assert result.metadata["t_initial"] == 5.0


class TestTabu:
    def test_near_optimal_small(self):
        model = random_qubo(14, 0.4, seed=8)
        exact = BruteForceSolver().solve(model)
        result = TabuSolver(n_iterations=2000, seed=0).solve(model)
        assert result.energy <= exact.energy + abs(exact.energy) * 0.05

    def test_tenure_default(self, random_qubo_12):
        result = TabuSolver(seed=0).solve(random_qubo_12)
        assert result.metadata["tenure"] == 10

    def test_escapes_local_minimum(self):
        """Tabu beats plain greedy descent on a frustrated instance."""
        model = random_qubo(30, 0.6, seed=10)
        greedy = GreedySolver(n_restarts=1, seed=0).solve(model)
        tabu = TabuSolver(n_iterations=3000, seed=0).solve(model)
        assert tabu.energy <= greedy.energy + 1e-9

    def test_time_limit(self):
        model = random_qubo(100, 0.2, seed=11)
        result = TabuSolver(
            n_iterations=10**7, time_limit=0.05, seed=0
        ).solve(model)
        assert result.status is SolverStatus.TIME_LIMIT
