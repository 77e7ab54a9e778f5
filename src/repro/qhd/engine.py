"""Preallocated, zero-allocation QHD evolution engine (paper §IV-A).

The paper's central scalability claim is that QHD evolution is "matrix
multiplication operations only"; the constant factor of a CPU
reproduction is then dominated by everything *around* the matmuls —
re-exponentiated phase vectors, duplicated ``|psi|^2`` passes and a heap
of per-step temporaries.  :class:`EvolutionEngine` removes that constant
factor while reproducing the original loop bit-for-bit in complex128:

* **Whole-run precomputation** — the per-step schedule coefficients and
  the ``(n_steps, grid)`` kinetic phase table ``exp(-i kin_s dt E)`` over
  the Dirichlet sine-basis eigenvalues are built once up front, so the
  steady-state loop never calls the schedule or exponentiates the
  kinetic spectrum again.
* **Ping-pong workspace buffers** — every ``(samples, n, grid)`` tensor
  of a Strang step lives in a preallocated buffer updated with in-place
  ufuncs and ``np.matmul(..., out=...)``; the steady-state loop performs
  zero per-step heap allocation of grid-sized tensors (the model's
  ``(samples, n)`` field mat-vec stays model-owned).
* **Single-pass observables** — ``|psi|^2`` is computed once per step
  and feeds the position expectations, the inverse-CDF measurement draw
  *and* the trace; when ``record_trace`` is off the full-batch
  expectation mat-vec is skipped entirely (only sample 0's expectation
  row feeds the deterministic mean-field trajectory).
* **Precision mode** — ``dtype="complex64"`` halves memory bandwidth;
  the grid points, the propagator eigensystem and every workspace buffer
  drop to single precision (quality is tolerance-tested, not bit-pinned).

Every stage runs on the full ``(samples, n, grid)`` arrays in the
calling thread; the only parallelism inside a run is BLAS's own, whose
thread count the owning :class:`repro.api.Session` sets.

Bit-exactness contract: with ``dtype="complex128"`` the engine performs
the same floating-point operations in the same order as the pre-engine
inline loop of :class:`repro.qhd.QhdSolver._run`, so seeded trajectories
are bit-for-bit identical — pinned against a literal copy of the old
loop in ``tests/qhd/test_engine.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.markers import hot_path
from repro.exceptions import SimulationError
from repro.hamiltonian.grid import PositionGrid, laplacian_eigensystem
from repro.hamiltonian.propagator import KineticPropagator
from repro.hamiltonian.schedules import Schedule
from repro.qhd.result import QhdTrace
from repro.qubo.model import BaseQubo
from repro.utils.timer import TimeBudget
from repro.utils.validation import check_integer, check_positive

#: Supported complex precisions and their real counterparts.
DTYPES = {
    "complex128": (np.complex128, np.float64),
    "complex64": (np.complex64, np.float32),
}


def check_complex_dtype(dtype: str, name: str = "dtype") -> str:
    """Validate the evolution precision knob (``complex128``/``complex64``)."""
    key = str(dtype)
    if key not in DTYPES:
        known = ", ".join(sorted(DTYPES))
        raise SimulationError(
            f"{name} must be one of {known}, got {dtype!r}"
        )
    return key


@dataclass(frozen=True)
class EvolutionOutcome:
    """Result of one :meth:`EvolutionEngine.evolve` call."""

    steps_done: int
    trace: QhdTrace | None


class EvolutionEngine:
    """Preallocated Strang-evolution engine for the batched QHD tensor.

    Parameters
    ----------
    model:
        The QUBO being descended (dense or sparse); supplies the
        mean-field local fields and, when tracing, relaxed energies.
    schedule:
        Prebuilt :class:`repro.hamiltonian.Schedule`.
    n_samples, grid_points, n_steps, t_final, normalize_every:
        The :class:`repro.qhd.QhdSolver` evolution knobs, unchanged.
    energy_scale:
        Normalisation of the potential landscape
        (:meth:`QhdSolver._energy_scale`).
    dtype:
        ``"complex128"`` (default, bit-exact vs the pre-engine loop) or
        ``"complex64"`` (half the memory bandwidth, tolerance quality).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.hamiltonian.schedules import get_schedule
    >>> from repro.qubo import QuboModel
    >>> from repro.utils.rng import ensure_rng
    >>> model = QuboModel(np.array([[0.0, 2.0], [0.0, 0.0]]), [-1.0, -1.0])
    >>> engine = EvolutionEngine(
    ...     model, get_schedule("qhd-default", 1.0), n_samples=2,
    ...     grid_points=8, n_steps=5, t_final=1.0)
    >>> rng = ensure_rng(0)
    >>> psi0 = np.ones((2, 2, 8), dtype=np.complex128)
    >>> outcome = engine.evolve(psi0, rng)
    >>> outcome.steps_done
    5
    """

    def __init__(
        self,
        model: BaseQubo,
        schedule: Schedule,
        *,
        n_samples: int,
        grid_points: int,
        n_steps: int,
        t_final: float,
        normalize_every: int = 10,
        energy_scale: float = 1.0,
        dtype: str = "complex128",
    ) -> None:
        self._model = model
        self._schedule = schedule
        self.n_samples = check_integer(n_samples, "n_samples", minimum=1)
        self.grid_points = check_integer(
            grid_points, "grid_points", minimum=2
        )
        self.n_steps = check_integer(n_steps, "n_steps", minimum=1)
        self.t_final = check_positive(t_final, "t_final")
        self.normalize_every = check_integer(
            normalize_every, "normalize_every", minimum=1
        )
        self.energy_scale = check_positive(energy_scale, "energy_scale")
        self.dtype = check_complex_dtype(dtype)
        self._cdtype, self._rdtype = DTYPES[self.dtype]

        real_name = np.dtype(self._rdtype).name
        self.grid = PositionGrid(self.grid_points, dtype=real_name)
        self.propagator = KineticPropagator(
            self.grid_points, self.grid.spacing, dtype=real_name
        )
        # Complex copy of the sine modes: the mixed-dtype matmul would
        # cast the mode matrix on every application anyway, and the
        # cast is exact, so hoist it out of the loop.
        self._modes = self.propagator.modes.astype(self._cdtype)
        self.points = self.grid.points
        self.spacing = self.grid.spacing
        # float64 eigenvalues for the phase table regardless of mode;
        # only the complex64 engine needs a rebuild (its propagator
        # stores a rounded float32 copy).
        if real_name == "float64":
            energies64 = np.asarray(self.propagator.energies)
        else:
            energies64 = laplacian_eigensystem(
                self.grid_points, self.grid.spacing
            )[0]

        # --- whole-run precomputation -------------------------------
        # Times, schedule coefficients and the kinetic phase table are
        # evaluated exactly as the per-step loop did (same scalar
        # association), so complex128 rows are bit-identical.
        self.dt = self.t_final / self.n_steps
        times = [(step + 0.5) * self.dt for step in range(self.n_steps)]
        self._times = np.asarray(times, dtype=np.float64)
        self._kin, self._pot = schedule.coefficient_tables(times)
        table = np.empty((self.n_steps, self.grid_points), np.complex128)
        for step in range(self.n_steps):
            coef = (-1j * self._kin[step]) * self.dt
            table[step] = np.exp(coef * energies64)
        self._ktable = table.astype(self._cdtype, copy=False)
        # Imaginary parts of the half-step potential coefficients
        # (-i pot_s dt/2, whose real part is exactly +0.0), evaluated
        # with the same scalar association as the inline loop.
        dt_half = self.dt / 2.0
        self._pot_imag = np.array(
            [((-1j * p) * dt_half).imag for p in self._pot],
            dtype=np.float64,
        )

        # --- workspace buffers --------------------------------------
        shape = (self.n_samples, model.n_variables, self.grid_points)
        flat = shape[:2]
        self._dens = np.empty(shape, dtype=self._rdtype)
        self._pot_buf = np.empty(shape, dtype=self._rdtype)
        self._half = np.empty(shape, dtype=self._cdtype)
        self._work = np.empty(shape, dtype=self._cdtype)
        self._work2 = np.empty(shape, dtype=self._cdtype)
        self._bool = np.empty(shape, dtype=bool)
        self._sums = np.empty(flat + (1,), dtype=self._rdtype)
        self._draws = np.empty(flat + (1,), dtype=np.float64)
        self._idx = np.empty(flat, dtype=np.int64)
        self._pos = np.empty(flat, dtype=self.points.dtype)
        self._mu = np.empty(flat, dtype=self._rdtype)
        self._psi: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def complex_dtype(self) -> np.dtype:
        """The complex precision the engine evolves in."""
        return np.dtype(self._cdtype)

    @property
    def kinetic_phase_table(self) -> np.ndarray:
        """Precomputed ``(n_steps, grid)`` kinetic phases (read-only)."""
        view = self._ktable.view()
        view.flags.writeable = False
        return view

    def evolve(
        self,
        psi0: np.ndarray,
        rng: np.random.Generator,
        budget: TimeBudget | None = None,
        record_trace: bool = False,
    ) -> EvolutionOutcome:
        """Run the Strang evolution from ``psi0``; psi stays in-engine.

        ``psi0`` must have shape ``(n_samples, n_variables, grid)``; it
        is adopted as the engine's psi buffer (cast/copied only when the
        layout requires it) and mutated in place by the evolution.  Call
        :meth:`measure` afterwards for the final normalised expectations
        and position draws.
        """
        expected = self._dens.shape
        psi = np.ascontiguousarray(psi0, dtype=self._cdtype)
        if psi.shape != expected:
            raise SimulationError(
                f"psi0 must have shape {expected}, got {psi.shape}"
            )
        self._psi = psi
        return self._evolve(rng, budget, record_trace)

    def measure(
        self, rng: np.random.Generator, shots: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Normalise, then measure the evolved ensemble in one pass.

        Computes the final densities once and derives from that single
        array the per-sample expectations ``mu`` (shape
        ``(n_samples, n)``) and all ``shots`` inverse-CDF position draws
        (shape ``(shots, n_samples, n)``) — one cumsum reused across
        shots, instead of ``shots`` full density recomputations.
        """
        if self._psi is None:
            raise SimulationError("measure() requires evolve() first")
        check_integer(shots, "shots", minimum=0)
        self._normalize()
        dens, sums = self._dens, self._sums
        self._density()
        self._check_mass()
        np.divide(dens, sums, out=dens)
        mu = dens @ self.points
        np.cumsum(dens, axis=-1, out=dens)
        positions = np.empty(
            (shots,) + self._pos.shape, dtype=self._pos.dtype
        )
        for shot in range(shots):
            rng.random(out=self._draws)
            self._inverse_cdf(positions[shot])
        return mu, positions

    # ------------------------------------------------------------------
    # Evolution loop
    # ------------------------------------------------------------------
    def _evolve(
        self,
        rng: np.random.Generator,
        budget: TimeBudget | None,
        record_trace: bool,
    ) -> EvolutionOutcome:
        trace_best: list[float] = []
        trace_mean: list[float] = []
        steps_done = 0
        for step in range(self.n_steps):
            if budget is not None and budget.exhausted():
                break
            mu = self._observe(rng, full_mu=record_trace)
            fields = np.asarray(
                self._model.local_fields_batch(self._pos), dtype=np.float64
            )
            np.divide(fields, self.energy_scale, out=fields)
            self._strang_step(step, fields)
            if (step + 1) % self.normalize_every == 0:
                self._normalize()
            if record_trace:
                relaxed = self._model.evaluate_batch(mu)
                trace_best.append(float(relaxed.min()))
                trace_mean.append(float(relaxed.mean()))
            steps_done = step + 1

        trace = None
        if record_trace:
            trace = QhdTrace(
                times=self._times[:steps_done].copy(),
                kinetic_coefficients=self._kin[:steps_done].copy(),
                potential_coefficients=self._pot[:steps_done].copy(),
                best_relaxed_energy=np.asarray(trace_best),
                mean_relaxed_energy=np.asarray(trace_mean),
            )
        return EvolutionOutcome(steps_done=steps_done, trace=trace)

    @hot_path
    def _observe(
        self, rng: np.random.Generator, full_mu: bool
    ) -> np.ndarray | None:
        """One density pass -> expectations + stochastic field positions.

        Fills ``self._pos`` with the per-sample measured positions
        (sample 0 overwritten by its expectation row — the deterministic
        trajectory) and returns the full ``(samples, n)`` expectation
        matrix only when ``full_mu`` (tracing) asks for it.
        """
        dens, sums = self._dens, self._sums
        self._density()
        self._check_mass()
        np.divide(dens, sums, out=dens)
        if full_mu:
            mu = np.matmul(dens, self.points, out=self._mu)
            mu0 = mu[0]
        else:
            mu = None
            mu0 = dens[0] @ self.points
        np.cumsum(dens, axis=-1, out=dens)
        # One full-batch draw, matching the pre-engine loop's single
        # rng.random(size=(samples, n, 1)) call.
        rng.random(out=self._draws)
        self._inverse_cdf(self._pos)
        self._pos[0] = mu0
        return mu

    @hot_path
    def _density(self) -> None:
        """``|psi|^2`` and its grid-axis mass."""
        psi, dens, sums = self._psi, self._dens, self._sums
        np.absolute(psi, out=dens)
        np.square(dens, out=dens)
        np.sum(dens, axis=-1, keepdims=True, out=sums)

    def _check_mass(self) -> None:
        if np.any(self._sums <= 0):
            raise SimulationError("cannot normalise zero probability mass")

    @hot_path
    def _inverse_cdf(self, out: np.ndarray) -> None:
        """Inverse-CDF position draw into ``out`` (cdf in ``_dens``)."""
        np.less(self._dens, self._draws, out=self._bool)
        np.sum(self._bool, axis=-1, out=self._idx)
        np.clip(self._idx, 0, self.grid_points - 1, out=self._idx)
        np.take(self.points, self._idx, out=out)

    @hot_path
    def _strang_step(self, step: int, fields: np.ndarray) -> None:
        """One in-place Strang split step with precomputed phases."""
        psi, half, work, work2 = (
            self._psi, self._half, self._work, self._work2,
        )
        points, pot_buf = self.points, self._pot_buf
        half_re, half_im = half.real, half.imag
        # The half-step phase exp(coef * V) has a purely imaginary
        # exponent (coef = -i * pot_s * dt/2 has exact +0.0 real part),
        # so cexp reduces to cos(theta) + i sin(theta) with
        # theta = V * Im(coef) — the same cos/sin calls cexp makes
        # internally (bit-identical), minus the complex bookkeeping.
        theta_scale = float(self._pot_imag[step])
        np.multiply(fields[..., None], points, out=pot_buf)
        np.multiply(pot_buf, theta_scale, out=pot_buf)
        np.cos(pot_buf, out=half_re)
        np.sin(pot_buf, out=half_im)
        np.multiply(psi, half, out=work)
        np.matmul(work, self._modes, out=work2)
        np.multiply(work2, self._ktable[step], out=work2)
        np.matmul(work2, self._modes, out=work)
        np.multiply(work, half, out=psi)

    @hot_path
    def _normalize(self) -> None:
        """In-place renormalisation, mirroring ``observables.normalize``."""
        psi = self._psi
        if not np.all(np.isfinite(psi.view(self._rdtype))):
            raise SimulationError(
                "wavefunction contains non-finite amplitudes"
            )
        self._density()
        nrm = self._sums
        np.multiply(nrm, self.spacing, out=nrm)
        np.sqrt(nrm, out=nrm)
        if np.any(nrm < 1e-12):
            raise SimulationError("wavefunction norm collapsed to zero")
        np.divide(psi, nrm, out=psi)
