"""Contract tests of the QHD evolution engine.

Two reference loops are pinned below:

* ``frozen_engine_run`` is a frozen copy of the engine's grid-major
  loop (fused kinetic operator table, doubling potential phase, row-add
  CDF, and on a model with Kronecker terms the block-structured
  mean-field fields).  The engine-driven solver must reproduce it
  **bit-for-bit** in complex128 — random dense QUBOs, sparse and dense
  community QUBOs — with and without tracing.
* ``reference_qhd_run`` is the solver's original inline loop
  (per-step schedule calls, ``position_expectations`` +
  ``sample_positions`` double density passes, ``strang_step``
  allocations, sequential ``shots`` measurement loop).  The engine
  changes rounding, not results: samples, energies and trace
  coefficients must be identical, and mean positions and trace energies
  equal to a relative ``1e-12``.

The ``complex64`` mode is quality-gated by tolerance instead, and the
knobs round-trip through the registry/config machinery like every other
knob.
"""

import numpy as np
import pytest

from repro.api import SOLVERS, ConfigError, Session
from repro.exceptions import SimulationError, SolverError
from repro.graphs.coarsen import coarsen_to_threshold
from repro.graphs.lfr import lfr_graph
from repro.hamiltonian.grid import PositionGrid, laplacian_eigensystem
from repro.hamiltonian.observables import (
    normalize,
    position_expectations,
    sample_positions,
)
from repro.hamiltonian.propagator import KineticPropagator, strang_step
from repro.qhd.engine import EvolutionEngine, phase_ladder
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
    samples, energies = _polish(solver, model, candidates)

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


def _polish(solver: QhdSolver, model, candidates):
    """The solver's refinement of the rounded candidates, verbatim."""
    stacked = np.concatenate(candidates, axis=0)
    refine_sweeps = solver.refine_sweeps
    if refine_sweeps is None:
        refine_sweeps = 2 * model.n_variables + 100
    if refine_sweeps > 0:
        return refine_candidates(model, stacked, max_sweeps=refine_sweeps)
    unique = np.unique(stacked, axis=0)
    return unique.astype(np.int8), model.evaluate_batch(unique)


def frozen_engine_run(solver: QhdSolver, model):
    """The grid-major engine loop, frozen when it replaced the inline loop.

    ``psi`` is a ``(grid, samples, n)`` tensor.  Each step applies one
    fused kinetic operator ``U_s = M diag(exp(-i kin_s dt E)) M`` and a
    half-step potential phase built by doubling from its ``g = 0`` row.
    Same return shape as :func:`reference_qhd_run`.
    """
    rng = ensure_rng(solver._seed)
    n, samples, grid_points = (
        model.n_variables, solver.n_samples, solver.grid_points,
    )
    grid = PositionGrid(grid_points)
    points = grid.points
    spacing = grid.spacing
    energy_scale = solver._energy_scale(model)

    dt = solver.t_final / solver.n_steps
    times = [(step + 0.5) * dt for step in range(solver.n_steps)]
    kin, pot = solver.schedule.coefficient_tables(times)
    energies, modes = laplacian_eigensystem(grid_points, spacing)
    phases = np.exp(((-1j * kin) * dt)[:, None] * energies)
    operators = np.matmul(modes * phases[:, None, :], modes)
    kick_angle = (-pot * (dt / 2.0)) * spacing
    getter = getattr(model, "kronecker_terms", None)
    terms = None if getter is None else getter()

    def local_fields(positions):
        """2 pos S + c; from S = M ⊗ I_k + I_n ⊗ a (J_k - I_k) if known."""
        if terms is None:
            return model.local_fields_batch(positions)
        n_nodes, k, m_block, pair = terms
        by_node = m_block @ positions.reshape(samples, n_nodes, k)
        by_pair = positions.reshape(-1, k) @ (
            pair * (np.ones((k, k)) - np.eye(k))
        )
        coupled = by_node.reshape(samples, -1) + by_pair.reshape(samples, -1)
        return 2.0 * coupled + model.effective_linear

    def normalized_density(psi):
        dens = np.square(np.abs(psi))
        return dens / np.sum(dens, axis=0)

    def draw(cdf):
        draws = rng.random(size=(samples, n))
        idx = np.sum(cdf < draws, axis=0)
        return points[np.clip(idx, 0, grid_points - 1)]

    def renormalize(psi):
        dens = np.square(np.abs(psi))
        return psi / np.sqrt(np.sum(dens, axis=0) * spacing)

    psi = solver._initial_wavepackets(rng, n, points, spacing)
    psi = np.ascontiguousarray(np.moveaxis(psi, -1, 0))

    trace_best, trace_mean = [], []
    for step in range(solver.n_steps):
        dens = normalized_density(psi)
        if solver.record_trace:
            mu = (points @ dens.reshape(grid_points, -1)).reshape(
                samples, n
            )
            mu0 = mu[0]
        else:
            mu0 = points @ dens[:, 0, :]
        field_input = draw(np.cumsum(dens, axis=0))
        field_input[0] = mu0
        fields = local_fields(field_input) / energy_scale

        half = np.empty_like(psi)
        theta = fields * kick_angle[step]
        half[0].real = np.cos(theta)
        half[0].imag = np.sin(theta)
        filled = 1
        while filled < grid_points:
            stop = min(2 * filled, grid_points)
            half[filled:stop] = half[: stop - filled] * half[filled - 1]
            filled = stop
        kicked = (psi * half).reshape(grid_points, -1)
        psi = (operators[step] @ kicked).reshape(psi.shape) * half

        if (step + 1) % solver.normalize_every == 0:
            psi = renormalize(psi)

        if solver.record_trace:
            relaxed = model.evaluate_batch(mu)
            trace_best.append(float(relaxed.min()))
            trace_mean.append(float(relaxed.mean()))

    psi = renormalize(psi)
    dens = normalized_density(psi)
    mu = (points @ dens.reshape(grid_points, -1)).reshape(samples, n)
    cdf = np.cumsum(dens, axis=0)
    candidates = [round_positions(mu)]
    for _ in range(solver.shots):
        candidates.append(round_positions(draw(cdf)))
    samples_out, energies_out = _polish(solver, model, candidates)

    trace = None
    if solver.record_trace:
        trace = (
            np.asarray(times),
            kin,
            pot,
            np.asarray(trace_best),
            np.asarray(trace_mean),
        )
    return samples_out, energies_out, mu, trace


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


@pytest.fixture(scope="module")
def community_model():
    graph, _ = lfr_graph(40, mixing=0.15, seed=5)
    model = build_community_qubo(graph, 3, backend="dense").model
    assert model.kronecker_terms() is not None
    return model


@pytest.fixture(scope="module")
def coarse_model():
    """k=8 community QUBO of a coarsened LFR graph with self-loops."""
    graph, _ = lfr_graph(300, mixing=0.2, seed=9)
    hierarchy = coarsen_to_threshold(
        graph, 40, max_degree=2.0 * graph.total_weight / 8
    )
    coarse = hierarchy.levels[-1].coarse_graph
    edge_u, edge_v, _ = coarse.edge_arrays()
    assert np.any(edge_u == edge_v)
    model = build_community_qubo(coarse, 8, backend="dense").model
    assert model.kronecker_terms() is not None
    return model


def _trace_fields(details):
    if details.trace is None:
        return None
    return (
        details.trace.times,
        details.trace.kinetic_coefficients,
        details.trace.potential_coefficients,
        details.trace.best_relaxed_energy,
        details.trace.mean_relaxed_energy,
    )


def assert_engine_contract(solver_kwargs, model):
    """(a) bit-exact vs the frozen loop; (b) rounding-close to the old one.

    Against :func:`reference_qhd_run`: samples, energies and the trace
    times and coefficients are identical; mean positions and trace
    energies are within ``rtol=1e-12`` (no absolute slack).
    """
    details = make_solver(**solver_kwargs).solve_detailed(model)
    got_trace = _trace_fields(details)

    samples, energies, mu, trace = frozen_engine_run(
        make_solver(**solver_kwargs), model
    )
    np.testing.assert_array_equal(details.samples, samples)
    np.testing.assert_array_equal(details.energies, energies)
    np.testing.assert_array_equal(details.mean_positions, mu)
    assert (got_trace is None) == (trace is None)
    for got, expected in zip(got_trace or (), trace or ()):
        np.testing.assert_array_equal(got, expected)

    samples, energies, mu, trace = reference_qhd_run(
        make_solver(**solver_kwargs), model
    )
    np.testing.assert_array_equal(details.samples, samples)
    np.testing.assert_array_equal(details.energies, energies)
    np.testing.assert_allclose(
        details.mean_positions, mu, rtol=1e-12, atol=0
    )
    assert (got_trace is None) == (trace is None)
    if trace is not None:
        for got, expected in zip(got_trace[:3], trace[:3]):
            np.testing.assert_array_equal(got, expected)
        for got, expected in zip(got_trace[3:], trace[3:]):
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)


class TestBitExactEquivalence:
    @pytest.mark.parametrize("seed", range(3))
    def test_dense_dirichlet(self, dense_model, seed):
        assert_engine_contract({"seed": seed}, dense_model)

    def test_sparse_dirichlet(self, sparse_model):
        assert_engine_contract({}, sparse_model)

    def test_dense_with_trace(self, dense_model):
        assert_engine_contract({"record_trace": True}, dense_model)

    def test_sparse_with_trace(self, sparse_model):
        assert_engine_contract({"record_trace": True}, sparse_model)

    def test_zero_shots(self, dense_model):
        assert_engine_contract({"shots": 0}, dense_model)

    def test_many_shots(self, dense_model):
        """Vectorised measurement consumes the identical RNG stream."""
        assert_engine_contract({"shots": 7}, dense_model)

    def test_no_refinement(self, dense_model):
        assert_engine_contract({"refine_sweeps": 0}, dense_model)

    def test_alternative_schedules(self, dense_model):
        assert_engine_contract({"schedule": "linear"}, dense_model)
        assert_engine_contract({"schedule": "exponential"}, dense_model)

    @pytest.mark.parametrize("seed", range(2))
    def test_community_kronecker_fields(self, community_model, seed):
        assert_engine_contract({"seed": seed}, community_model)

    def test_community_with_trace(self, community_model):
        assert_engine_contract({"record_trace": True}, community_model)

    @pytest.mark.parametrize("record_trace", [False, True])
    def test_coarse_self_loops_k8(self, coarse_model, record_trace):
        assert_engine_contract(
            {"record_trace": record_trace, "n_steps": 40}, coarse_model
        )


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
    def test_operator_table_is_fused_kinetic_step(self, dense_model):
        """U_s = M diag(exp(-i kin_s dt E)) M, unitary, read-only."""
        solver = make_solver()
        engine = EvolutionEngine(
            dense_model,
            solver.schedule,
            n_samples=2,
            grid_points=8,
            n_steps=10,
            t_final=1.0,
        )
        table = engine.kinetic_operator_table
        assert table.shape == (10, 8, 8)
        assert not table.flags.writeable
        prop = KineticPropagator(8, PositionGrid(8).spacing)
        dt = 1.0 / 10
        for step in (0, 4, 9):
            kin = solver.schedule.kinetic((step + 0.5) * dt)
            phases = np.exp(-1j * kin * dt * prop.energies)
            expected = prop.modes @ np.diag(phases) @ prop.modes
            np.testing.assert_allclose(table[step], expected, rtol=1e-14)
            np.testing.assert_allclose(
                table[step] @ table[step].conj().T, np.eye(8), atol=1e-14
            )

    @pytest.mark.parametrize("grid_points", [2, 3, 5, 16, 32])
    def test_phase_ladder_matches_direct_phase(self, grid_points):
        """Doubling rows equal cos/sin(theta x_g), partial rounds too."""
        theta = ensure_rng(grid_points).uniform(-4.0, 4.0, size=(5, 7))
        points = PositionGrid(grid_points).points
        out = np.empty((grid_points,) + theta.shape, dtype=np.complex128)
        phase_ladder(theta * points[0], out)
        angles = theta * points[:, None, None]
        np.testing.assert_allclose(out.real, np.cos(angles), atol=1e-14)
        np.testing.assert_allclose(out.imag, np.sin(angles), atol=1e-14)

    @pytest.mark.parametrize("dtype", ["complex128", "complex64"])
    def test_block_fields_match_dense_matvec(self, coarse_model, dtype):
        """The Kronecker stage is the model's field mat-vec up to rounding."""
        engine = EvolutionEngine(
            coarse_model,
            make_solver().schedule,
            n_samples=5,
            grid_points=8,
            n_steps=5,
            t_final=1.0,
            dtype=dtype,
        )
        positions = ensure_rng(3).random(engine._pos.shape)
        engine._pos[...] = positions
        expected = coarse_model.local_fields_batch(engine._pos)
        fields = engine._block_fields()
        assert fields.dtype == np.float64
        np.testing.assert_allclose(fields, expected, rtol=1e-12, atol=1e-14)

    def test_models_without_terms_use_the_model_matvec(
        self, dense_model, sparse_model
    ):
        for model in (dense_model, sparse_model):
            engine = EvolutionEngine(
                model,
                make_solver().schedule,
                n_samples=2,
                grid_points=8,
                n_steps=5,
                t_final=1.0,
            )
            assert not engine._blocked

    def test_evolve_rejects_wrong_psi0_shape(self, dense_model):
        engine = EvolutionEngine(
            dense_model,
            make_solver().schedule,
            n_samples=2,
            grid_points=8,
            n_steps=5,
            t_final=1.0,
        )
        n = dense_model.n_variables
        for shape in [(2, n, 7), (8, 2, n), (2, n)]:
            with pytest.raises(SimulationError, match="psi0 must have"):
                engine.evolve(np.ones(shape, complex), ensure_rng(0))
        psi0 = np.ones((2, n, 8), complex)
        engine.evolve(psi0, ensure_rng(0))
        np.testing.assert_array_equal(psi0, 1.0)

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
