"""The Quantum Hamiltonian Descent QUBO solver (paper §IV-A).

Simulates the QHD evolution

    i dPsi/dt = [ e^{phi(t)} (-1/2 Laplacian) + e^{chi(t)} f(x) ] Psi

for a QUBO ``f`` relaxed to the box [0, 1]^n, with a *mean-field product
state* ansatz: the joint wavefunction is approximated as a product of one
1-D wavefunction per variable, and each variable evolves in the effective
potential created by the mean positions of the others,

    V_i(x) = h_i(mu) * x,    h_i(mu) = c_i + 2 (S mu)_i ,

which is the exact partial energy of variable ``i`` given the others at
their expectations.  The ensemble of ``n_samples`` independent initial
wavepackets is evolved simultaneously as one ``(grid, samples, variables)``
tensor; the kinetic part of each Strang step is one dense
``(grid, grid)`` matmul over every (sample, variable) column — the
"matrix multiplication operations only" structure the paper exploits for
GPU acceleration (here vectorised with numpy on CPU).

After evolution each sample is measured (position sampling per variable,
plus the rounded mean as a deterministic candidate), rounded to binary,
and classically refined by vectorised 1-opt descent — QHDOPT's hybrid
quantum-classical loop.

The Strang loop itself runs on the preallocated
:class:`repro.qhd.engine.EvolutionEngine`: a grid-major tensor, one
fused kinetic matmul and a doubling potential phase per step, in-place
buffers and single-pass observables.  It changes the historical
inline loop's rounding, not its dynamics: on the pinned seeded cases
samples and energies are identical and mean positions agree to a
relative ``1e-12``.
"""

from __future__ import annotations

import numpy as np

from repro.api.registry import SOLVERS
from repro.exceptions import SimulationError, SolverError
from repro.hamiltonian.observables import normalize
from repro.hamiltonian.schedules import Schedule, get_schedule
from repro.qhd.engine import EvolutionEngine, check_complex_dtype
from repro.qhd.refinement import refine_candidates, round_positions
from repro.qhd.result import QhdDetails
from repro.qubo.model import BaseQubo
from repro.solvers.base import QuboSolver, SolveResult, SolverStatus
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.timer import Stopwatch, TimeBudget
from repro.utils.validation import (
    check_integer,
    check_positive,
    check_time_limit,
)


@SOLVERS.register("qhd")
class QhdSolver(QuboSolver):
    """Quantum Hamiltonian Descent solver for QUBO models.

    Parameters
    ----------
    n_samples:
        Independent initial wavepackets evolved in parallel (the batch
        dimension the paper parallelises across GPUs).
    grid_points:
        Interior grid points per variable dimension.
    n_steps:
        Strang steps over the horizon ``t_final``.
    t_final:
        Evolution horizon of the schedule.
    schedule:
        Schedule name (``qhd-default``, ``linear``, ``exponential``) or a
        prebuilt :class:`repro.hamiltonian.Schedule` (its ``t_final`` then
        takes precedence).
    shots:
        Position measurements drawn per sample at the end of evolution.
    refine_sweeps:
        1-opt refinement sweeps on the measured candidates (0 disables the
        classical polish).  ``None`` auto-scales to ``2 n + 100`` so that
        refinement can reach a local minimum even on large instances.
    time_limit:
        Optional wall-clock budget in seconds.  Evolution stops at the
        deadline with the wavefunctions evolved so far (measurement and
        refinement still run) and the result reports ``TIME_LIMIT``.
    normalize_every:
        Renormalise the wavefunctions every this many steps to control
        floating-point drift (Strang steps are unitary up to rounding).
    dtype:
        Evolution precision: ``"complex128"`` (default) or
        ``"complex64"`` (half the memory bandwidth at single-precision
        quality).
    seed:
        RNG seed for initial wavepackets and measurements.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.qubo import QuboModel
    >>> model = QuboModel(np.array([[0.0, 2.0], [0.0, 0.0]]), [-1.0, -1.0])
    >>> result = QhdSolver(n_samples=8, n_steps=60, seed=0).solve(model)
    >>> result.energy  # optimum is x = (1, 0) or (0, 1) with energy -1
    -1.0
    """

    name = "qhd"

    #: ``schedule`` is normalised to a Schedule object on assignment;
    #: the original constructor argument is kept for config round-trips.
    _config_aliases = {"schedule": "_schedule_spec"}

    def __init__(
        self,
        n_samples: int = 32,
        grid_points: int = 32,
        n_steps: int = 200,
        t_final: float = 1.0,
        schedule: str | Schedule = "qhd-default",
        shots: int = 4,
        refine_sweeps: int | None = None,
        normalize_every: int = 10,
        record_trace: bool = False,
        dtype: str = "complex128",
        time_limit: float | None = float("inf"),
        seed: SeedLike = None,
    ) -> None:
        self.n_samples = check_integer(n_samples, "n_samples", minimum=1)
        self.grid_points = check_integer(
            grid_points, "grid_points", minimum=4
        )
        self.n_steps = check_integer(n_steps, "n_steps", minimum=1)
        self.t_final = check_positive(t_final, "t_final")
        self._schedule_spec = schedule
        if isinstance(schedule, Schedule):
            self.schedule: Schedule = schedule
            self.t_final = schedule.t_final
        else:
            self.schedule = get_schedule(schedule, self.t_final)
        self.shots = check_integer(shots, "shots", minimum=0)
        self.refine_sweeps = (
            None
            if refine_sweeps is None
            else check_integer(refine_sweeps, "refine_sweeps", minimum=0)
        )
        self.normalize_every = check_integer(
            normalize_every, "normalize_every", minimum=1
        )
        self.record_trace = bool(record_trace)
        try:
            self.dtype = check_complex_dtype(dtype)
        except SimulationError as err:
            raise SolverError(str(err)) from None
        self.time_limit = check_time_limit(time_limit)
        self._seed = seed

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def solve(self, model: BaseQubo) -> SolveResult:
        """Minimise ``model``; see :meth:`solve_detailed` for diagnostics.

        ``model`` may be dense or sparse: every hot operation of the
        evolution loop is a ``local_fields_batch`` /
        ``evaluate_batch`` call on the shared interface, so sparse
        community QUBOs run without densification.
        """
        details, wall_time, steps = self._run(model)
        status = (
            SolverStatus.TIME_LIMIT
            if steps < self.n_steps
            else SolverStatus.HEURISTIC
        )
        return SolveResult(
            x=details.best_sample,
            energy=details.best_energy,
            status=status,
            wall_time=wall_time,
            solver_name=self.name,
            iterations=steps,
            metadata={
                "n_samples": self.n_samples,
                "grid_points": self.grid_points,
                "schedule": type(self.schedule).__name__,
                "n_candidates": len(details.samples),
                "refinement_sweeps": details.refinement_sweeps,
            },
        )

    def solve_detailed(self, model: BaseQubo) -> QhdDetails:
        """Minimise ``model`` and return the full measurement ensemble."""
        details, _, _ = self._run(model)
        return details

    # ------------------------------------------------------------------
    # Core simulation
    # ------------------------------------------------------------------
    def _run(self, model: BaseQubo) -> tuple[QhdDetails, float, int]:
        model = self._validate_model(model)
        rng = ensure_rng(self._seed)
        watch = Stopwatch().start()

        n = model.n_variables
        energy_scale = self._energy_scale(model)
        # The engine owns the grid, the whole-run kinetic operator
        # table and every workspace buffer; the stochastic mean-field
        # dynamics (sample 0 deterministic via expectations, the rest
        # driven by position measurements) live in engine._observe.
        engine = EvolutionEngine(
            model,
            self.schedule,
            n_samples=self.n_samples,
            grid_points=self.grid_points,
            n_steps=self.n_steps,
            t_final=self.t_final,
            normalize_every=self.normalize_every,
            energy_scale=energy_scale,
            dtype=self.dtype,
        )
        psi = self._initial_wavepackets(
            rng, n, engine.points, engine.spacing, engine.complex_dtype
        )
        budget = TimeBudget(self.time_limit)
        outcome = engine.evolve(
            psi, rng, budget=budget, record_trace=self.record_trace
        )

        # Single-pass measurement: one final density/cumulative
        # distribution feeds the expectations and all `shots` draws.
        mu, measured = engine.measure(rng, self.shots)
        candidates = [round_positions(mu)]
        if self.shots:
            candidates.append(round_positions(measured.reshape(-1, n)))
        stacked = np.concatenate(candidates, axis=0)

        refine_sweeps = self.refine_sweeps
        if refine_sweeps is None:
            refine_sweeps = 2 * model.n_variables + 100
        samples, energies = refine_candidates(
            model, stacked, max_sweeps=refine_sweeps
        )
        watch.stop()

        details = QhdDetails(
            samples=samples,
            energies=energies,
            mean_positions=mu,
            trace=outcome.trace,
            refinement_sweeps=refine_sweeps,
            metadata={
                "energy_scale": energy_scale,
                "dtype": self.dtype,
            },
        )
        return details, watch.elapsed, outcome.steps_done

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _energy_scale(model: BaseQubo) -> float:
        """Normalisation of the QUBO landscape fed to the dynamics.

        The schedule's potential coefficient sweeps a fixed numeric range,
        so the potential itself is rescaled to unit typical magnitude —
        otherwise instances with large coefficients would skip the global-
        search phase entirely and instances with tiny ones would never
        localise.
        """
        # Backend-agnostic |coupling| row sums: sparse models include
        # their factor-term bound without densifying.
        row_sums = model.coupling_row_abs_sums()
        field_bound = row_sums + np.abs(model.effective_linear)
        scale = float(np.median(field_bound))
        if scale <= 0:
            scale = float(field_bound.max()) or 1.0
        return scale

    def _initial_wavepackets(
        self,
        rng: np.random.Generator,
        n_variables: int,
        points: np.ndarray,
        spacing: float,
        dtype: np.dtype | type = np.complex128,
    ) -> np.ndarray:
        """Randomly centred Gaussian wavepackets, one per (sample, var).

        Sample 0 starts every variable in the box ground state (the sine
        mode) for a deterministic "unbiased" member; the remaining samples
        get random centres and momenta so the mean-field ensemble explores
        distinct basins.  The RNG draws stay float64 for every ``dtype``,
        so complex64 runs consume the identical stream.
        """
        shape = (self.n_samples, n_variables, len(points))
        psi = np.empty(shape, dtype=dtype)
        psi[0] = np.sin(np.pi * points / (points[-1] + spacing))

        if self.n_samples > 1:
            centers = rng.uniform(
                0.15, 0.85, size=(self.n_samples - 1, n_variables, 1)
            )
            widths = rng.uniform(
                0.08, 0.2, size=(self.n_samples - 1, n_variables, 1)
            )
            momenta = rng.normal(
                0.0, 3.0, size=(self.n_samples - 1, n_variables, 1)
            )
            x = points[None, None, :]
            envelope = np.exp(-((x - centers) ** 2) / (2.0 * widths**2))
            phase = np.exp(1j * momenta * x)
            psi[1:] = envelope * phase
        return normalize(psi, spacing)
