"""Tests for the QHD QUBO solver."""

import numpy as np
import pytest

from repro.hamiltonian.schedules import LinearSchedule
from repro.qhd.solver import QhdSolver
from repro.qubo.model import QuboModel
from repro.qubo.random_instances import random_qubo
from repro.solvers.base import SolverStatus


def fast_solver(**overrides):
    defaults = dict(n_samples=8, n_steps=50, grid_points=12, seed=0)
    defaults.update(overrides)
    return QhdSolver(**defaults)


class TestSolveBasics:
    def test_solves_two_variable_optimum(self, small_qubo):
        result = fast_solver().solve(small_qubo)
        assert result.energy == -1.0
        assert result.status is SolverStatus.HEURISTIC

    def test_result_fields(self, small_qubo):
        result = fast_solver().solve(small_qubo)
        assert result.solver_name == "qhd"
        assert result.iterations == 50
        assert result.wall_time > 0
        assert result.metadata["n_samples"] == 8

    def test_binary_output(self, random_qubo_12):
        result = fast_solver().solve(random_qubo_12)
        assert set(np.unique(result.x)).issubset({0, 1})

    def test_energy_consistent_with_x(self, random_qubo_12):
        result = fast_solver().solve(random_qubo_12)
        assert np.isclose(
            result.energy,
            random_qubo_12.evaluate(result.x.astype(float)),
        )

    def test_reproducible_with_seed(self, random_qubo_12):
        a = fast_solver(seed=3).solve(random_qubo_12)
        b = fast_solver(seed=3).solve(random_qubo_12)
        assert a.energy == b.energy
        np.testing.assert_array_equal(a.x, b.x)

    def test_finds_optimum_on_small_instances(self):
        """QHD matches brute force on a batch of 10-variable QUBOs."""
        hits = 0
        for seed in range(6):
            model = random_qubo(10, 0.4, seed=seed)
            _, best = model.brute_force_minimum()
            result = fast_solver(n_samples=12, seed=seed).solve(model)
            if np.isclose(result.energy, best, atol=1e-9):
                hits += 1
        assert hits >= 5  # near-perfect on tiny instances

    def test_offset_carried_through(self):
        model = QuboModel(np.zeros((3, 3)), np.ones(3), offset=7.0)
        result = fast_solver().solve(model)
        assert np.isclose(result.energy, 7.0)  # all-zeros is optimal


class TestConfiguration:
    def test_custom_schedule_object(self, small_qubo):
        schedule = LinearSchedule(2.0)
        solver = fast_solver(schedule=schedule)
        assert solver.t_final == 2.0
        assert solver.solve(small_qubo).energy == -1.0

    def test_schedule_by_name(self, small_qubo):
        solver = fast_solver(schedule="exponential")
        assert solver.solve(small_qubo).energy == -1.0

    def test_zero_shots_still_works(self, small_qubo):
        # The rounded-mean candidates remain.
        result = fast_solver(shots=0).solve(small_qubo)
        assert result.energy <= 0.0

    def test_no_refinement(self, small_qubo):
        result = fast_solver(refine_sweeps=0).solve(small_qubo)
        assert result.metadata["refinement_sweeps"] == 0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            QhdSolver(n_samples=0)
        with pytest.raises(ValueError):
            QhdSolver(grid_points=2)
        with pytest.raises(TypeError):
            QhdSolver(n_steps=1.5)


class TestSolveDetailed:
    def test_details_shapes(self, random_qubo_12):
        solver = fast_solver()
        details = solver.solve_detailed(random_qubo_12)
        assert details.samples.ndim == 2
        assert details.samples.shape[1] == 12
        assert len(details.energies) == len(details.samples)
        assert details.mean_positions.shape == (8, 12)

    def test_best_sample_consistency(self, random_qubo_12):
        details = fast_solver().solve_detailed(random_qubo_12)
        assert details.best_energy == details.energies.min()
        np.testing.assert_array_equal(
            details.best_sample, details.samples[details.best_index]
        )

    def test_mean_positions_in_box(self, random_qubo_12):
        details = fast_solver().solve_detailed(random_qubo_12)
        assert details.mean_positions.min() >= 0.0
        assert details.mean_positions.max() <= 1.0


class TestTrace:
    def test_trace_recorded(self, small_qubo):
        solver = fast_solver(record_trace=True)
        details = solver.solve_detailed(small_qubo)
        trace = details.trace
        assert trace is not None
        assert len(trace) == 50
        assert len(trace.kinetic_coefficients) == 50

    def test_trace_shows_three_phases(self, random_qubo_12):
        """Kinetic decays, potential grows, energy descends over time."""
        solver = fast_solver(n_steps=80, record_trace=True)
        trace = solver.solve_detailed(random_qubo_12).trace
        assert trace.kinetic_coefficients[0] > trace.kinetic_coefficients[-1]
        assert (
            trace.potential_coefficients[-1]
            > trace.potential_coefficients[0]
        )
        # The ensemble's mean relaxed energy descends over the run
        # (per-sample "best" is noisy under the stochastic mean field).
        assert trace.mean_relaxed_energy[-1] < trace.mean_relaxed_energy[0]

    def test_no_trace_by_default(self, small_qubo):
        details = fast_solver().solve_detailed(small_qubo)
        assert details.trace is None


class TestEnergyScale:
    def test_scale_invariance_of_solution(self):
        """Scaling all coefficients must not change the argmin found."""
        model = random_qubo(10, 0.4, seed=11)
        big = QuboModel(
            np.asarray(model.coupling) * 1e4,
            np.asarray(model.effective_linear) * 1e4,
            model.offset * 1e4,
        )
        a = fast_solver(seed=2).solve(model)
        b = fast_solver(seed=2).solve(big)
        np.testing.assert_array_equal(a.x, b.x)

    def test_zero_coupling_model(self):
        model = QuboModel(np.zeros((4, 4)), np.array([1.0, -1.0, 2.0, -2.0]))
        result = fast_solver().solve(model)
        np.testing.assert_array_equal(result.x, [0, 1, 0, 1])
