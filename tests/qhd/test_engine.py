"""Seeded equivalence of the QHD evolution engine vs the old inline loop.

PR-3 style contract tests: the pre-engine ``QhdSolver._run`` is pinned
below as a literal reference implementation (per-step schedule calls,
``position_expectations`` + ``sample_positions`` double density passes,
``strang_step`` allocations, sequential ``shots`` measurement loop) and
the engine-driven solver must reproduce it **bit-for-bit** in complex128
— dense and sparse models, with and without tracing.  The ``complex64``
mode is quality-gated by tolerance instead, and the new knobs round-trip
through the registry/config machinery like every other knob.
"""

import numpy as np
import pytest

from repro.api import SOLVERS, ConfigError, Session
from repro.exceptions import SolverError
from repro.graphs.lfr import lfr_graph
from repro.hamiltonian.grid import PositionGrid
from repro.hamiltonian.observables import (
    normalize,
    position_expectations,
    sample_positions,
)
from repro.hamiltonian.propagator import KineticPropagator, strang_step
from repro.qhd.engine import EvolutionEngine
from repro.qhd.refinement import refine_candidates, round_positions
from repro.qhd.solver import QhdSolver
from repro.qubo import build_community_qubo
from repro.qubo.random_instances import random_qubo
from repro.utils.rng import ensure_rng


def reference_qhd_run(solver: QhdSolver, model):
    """The pre-engine ``QhdSolver._run`` evolution, verbatim.

    Returns ``(samples, energies, mean_positions, trace_arrays)`` with
    ``trace_arrays`` a tuple of the five trace arrays (or ``None``).
    """
    rng = ensure_rng(solver._seed)
    n = model.n_variables
    grid = PositionGrid(solver.grid_points)
    points = grid.points
    spacing = grid.spacing
    propagator = KineticPropagator(solver.grid_points, spacing)
    energy_scale = solver._energy_scale(model)

    psi = solver._initial_wavepackets(rng, n, points, spacing)
    dt = solver.t_final / solver.n_steps

    trace_times, trace_kin, trace_pot = [], [], []
    trace_best, trace_mean = [], []
    for step in range(solver.n_steps):
        t_mid = (step + 0.5) * dt
        kin = solver.schedule.kinetic(t_mid)
        pot = solver.schedule.potential(t_mid)

        mu = position_expectations(psi, points, spacing)
        field_input = sample_positions(psi, points, spacing, seed=rng)
        field_input[0] = mu[0]
        fields = model.local_fields_batch(field_input) / energy_scale
        potential = fields[..., None] * points
        psi = strang_step(psi, potential, propagator, dt, kin, pot)

        if (step + 1) % solver.normalize_every == 0:
            psi = normalize(psi, spacing)

        if solver.record_trace:
            relaxed = model.evaluate_batch(mu)
            trace_times.append(t_mid)
            trace_kin.append(kin)
            trace_pot.append(pot)
            trace_best.append(float(relaxed.min()))
            trace_mean.append(float(relaxed.mean()))

    psi = normalize(psi, spacing)
    mu = position_expectations(psi, points, spacing)

    candidates = [round_positions(mu)]
    for _ in range(solver.shots):
        measured = sample_positions(psi, points, spacing, seed=rng)
        candidates.append(round_positions(measured))
    stacked = np.concatenate(candidates, axis=0)

    refine_sweeps = solver.refine_sweeps
    if refine_sweeps is None:
        refine_sweeps = 2 * model.n_variables + 100
    if refine_sweeps > 0:
        samples, energies = refine_candidates(
            model, stacked, max_sweeps=refine_sweeps
        )
    else:
        unique = np.unique(stacked, axis=0)
        samples = unique.astype(np.int8)
        energies = model.evaluate_batch(unique)

    trace = None
    if solver.record_trace:
        trace = (
            np.asarray(trace_times),
            np.asarray(trace_kin),
            np.asarray(trace_pot),
            np.asarray(trace_best),
            np.asarray(trace_mean),
        )
    return samples, energies, mu, trace


def make_solver(**overrides):
    defaults = dict(n_samples=6, n_steps=33, grid_points=12, seed=7)
    defaults.update(overrides)
    return QhdSolver(**defaults)


@pytest.fixture(scope="module")
def dense_model():
    return random_qubo(14, 0.35, seed=11)


@pytest.fixture(scope="module")
def sparse_model():
    graph, _ = lfr_graph(40, mixing=0.15, seed=5)
    return build_community_qubo(graph, 3, backend="sparse").model


def assert_bit_exact(solver_kwargs, model):
    solver = make_solver(**solver_kwargs)
    ref_samples, ref_energies, ref_mu, ref_trace = reference_qhd_run(
        make_solver(**solver_kwargs), model
    )
    details = solver.solve_detailed(model)
    np.testing.assert_array_equal(details.samples, ref_samples)
    np.testing.assert_array_equal(details.energies, ref_energies)
    np.testing.assert_array_equal(details.mean_positions, ref_mu)
    if ref_trace is None:
        assert details.trace is None
    else:
        fields = (
            details.trace.times,
            details.trace.kinetic_coefficients,
            details.trace.potential_coefficients,
            details.trace.best_relaxed_energy,
            details.trace.mean_relaxed_energy,
        )
        for got, expected in zip(fields, ref_trace):
            np.testing.assert_array_equal(got, expected)


class TestBitExactEquivalence:
    @pytest.mark.parametrize("seed", range(3))
    def test_dense_dirichlet(self, dense_model, seed):
        assert_bit_exact({"seed": seed}, dense_model)

    def test_sparse_dirichlet(self, sparse_model):
        assert_bit_exact({}, sparse_model)

    def test_dense_with_trace(self, dense_model):
        assert_bit_exact({"record_trace": True}, dense_model)

    def test_sparse_with_trace(self, sparse_model):
        assert_bit_exact({"record_trace": True}, sparse_model)

    def test_zero_shots(self, dense_model):
        assert_bit_exact({"shots": 0}, dense_model)

    def test_many_shots(self, dense_model):
        """Vectorised measurement consumes the identical RNG stream."""
        assert_bit_exact({"shots": 7}, dense_model)

    def test_no_refinement(self, dense_model):
        assert_bit_exact({"refine_sweeps": 0}, dense_model)

    def test_alternative_schedules(self, dense_model):
        assert_bit_exact({"schedule": "linear"}, dense_model)
        assert_bit_exact({"schedule": "exponential"}, dense_model)


class TestComplex64Mode:
    def test_solves_small_optimum(self, small_qubo):
        result = make_solver(dtype="complex64").solve(small_qubo)
        assert result.energy == -1.0

    def test_close_to_complex128(self, dense_model):
        """Single precision tracks the double-precision trajectory."""
        full = make_solver(seed=4).solve_detailed(dense_model)
        half = make_solver(seed=4, dtype="complex64").solve_detailed(
            dense_model
        )
        assert half.mean_positions.dtype == np.float32
        np.testing.assert_allclose(
            half.mean_positions, full.mean_positions, atol=5e-3
        )

    def test_quality_parity(self, dense_model):
        """Refined energies match double precision on small instances."""
        full = make_solver(seed=9).solve(dense_model)
        half = make_solver(seed=9, dtype="complex64").solve(dense_model)
        scale = max(1.0, abs(full.energy))
        assert half.energy <= full.energy + 0.05 * scale

    def test_workers_deterministic_in_complex64(self, dense_model):
        """Concurrent batch workers reproduce the single seeded run."""
        single = make_solver(seed=5, dtype="complex64").solve(dense_model)
        spec = {
            "solver": "qhd",
            "solver_config": {
                "n_samples": 6,
                "n_steps": 33,
                "grid_points": 12,
                "dtype": "complex64",
            },
            "seed": 5,
        }
        with Session(executor="thread", max_workers=2) as session:
            batch = session.solve_batch([dense_model] * 3, spec)
        for artifact in batch:
            np.testing.assert_array_equal(artifact.result.x, single.x)
            assert artifact.result.energy == single.energy


class TestEngineInternals:
    def test_phase_table_matches_per_step_exponentials(self, dense_model):
        solver = make_solver()
        engine = EvolutionEngine(
            dense_model,
            solver.schedule,
            n_samples=2,
            grid_points=8,
            n_steps=10,
            t_final=1.0,
        )
        prop = KineticPropagator(8, PositionGrid(8).spacing)
        dt = 1.0 / 10
        for step in (0, 4, 9):
            kin = solver.schedule.kinetic((step + 0.5) * dt)
            expected = np.exp(-1j * kin * dt * prop.energies)
            np.testing.assert_array_equal(
                engine.kinetic_phase_table[step], expected
            )

    def test_measure_requires_evolve(self, dense_model):
        solver = make_solver()
        engine = EvolutionEngine(
            dense_model,
            solver.schedule,
            n_samples=2,
            grid_points=8,
            n_steps=5,
            t_final=1.0,
        )
        with pytest.raises(Exception):
            engine.measure(ensure_rng(0), 2)

    def test_metadata_reports_knobs(self, small_qubo):
        details = make_solver(dtype="complex64").solve_detailed(small_qubo)
        assert details.metadata["dtype"] == "complex64"


class TestConfigRoundTrips:
    def test_solver_roundtrip_with_new_knobs(self):
        spec = {
            "n_samples": 4,
            "n_steps": 10,
            "dtype": "complex64",
            "seed": 1,
        }
        solver = SOLVERS.create("qhd", **spec)
        config = solver.to_config()
        assert config["dtype"] == "complex64"
        rebuilt = SOLVERS.get("qhd").from_config(config)
        assert rebuilt.to_config() == config

    def test_defaults_roundtrip(self):
        config = QhdSolver().to_config()
        assert config["dtype"] == "complex128"
        assert QhdSolver.from_config(config).to_config() == config

    def test_invalid_knobs_rejected(self):
        with pytest.raises(SolverError):
            QhdSolver(dtype="float64")
        with pytest.raises(ConfigError, match="n_workers"):
            SOLVERS.create("qhd", n_workers=2)
        with pytest.raises(ConfigError, match="boundary"):
            SOLVERS.create("qhd", boundary="periodic")
