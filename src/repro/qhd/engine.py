"""Preallocated, grid-major QHD evolution engine (paper §IV-A).

The paper's central scalability claim is that QHD evolution is "matrix
multiplication operations only".  :class:`EvolutionEngine` runs the
mean-field Strang loop that way on CPU: per step, one complex matmul
carries the kinetic factor and everything else is a whole-row ufunc.

* **Grid-major state** — the ensemble lives in a ``(grid, samples, n)``
  tensor, so every grid-axis operation (norms, expectations, the
  measurement CDF, the inverse-CDF draw) works on contiguous
  ``(samples, n)`` rows.  :meth:`EvolutionEngine.evolve` takes the
  solver's ``(samples, n, grid)`` wavepackets and transposes them once.
* **Fused kinetic operator** — the ``(n_steps, grid, grid)`` table
  ``U_s = M diag(exp(-i kin_s dt E)) M`` over the Dirichlet sine modes
  ``M`` (symmetric and orthogonal) is built up front, so the kinetic
  factor of step ``s`` is one ``U_s @ psi`` over ``samples * n``
  columns.  The table holds ``n_steps * grid**2`` complex entries.
* **Doubling potential phase** — the half-step kick
  ``exp(-i pot_s (dt/2) f x_g)`` on the uniform grid ``x_g = (g+1) h``
  is the ``(g+1)``-th power of its ``g = 0`` row.  :func:`phase_ladder`
  evaluates one cos/sin per (sample, variable) and fills the other rows
  by repeated doubling, ``ceil(log2 grid)`` complex multiplies in all.
* **Kronecker fields** — when the model records the Kronecker form
  ``S = M ⊗ I_k + a I_n ⊗ (J_k - I_k)`` of its coupling (the dense
  community QUBO, :meth:`repro.qubo.QuboModel.kronecker_terms`), each
  step's mean-field fields are one ``(n, n) @ (n, k)`` matmul per
  sample and one ``(samples * n, k) @ (k, k)`` matmul, written into
  preallocated buffers.  Any other model supplies them through
  ``local_fields_batch``, a ``(samples, n)`` mat-vec it owns.
* **Buffer discipline** — every grid-sized tensor of a step lives in a
  preallocated buffer updated with in-place ufuncs and
  ``np.matmul(..., out=...)``; the steady-state loop allocates no
  grid-sized temporary.
* **Single-pass observables** — ``|psi|^2`` is computed once per step
  and feeds the position expectations, the inverse-CDF measurement draw
  *and* the trace; when ``record_trace`` is off only sample 0's
  expectation row (the deterministic mean-field trajectory) is formed.
* **Precision mode** — ``dtype="complex64"`` halves memory bandwidth;
  the grid points, the kinetic table and every workspace buffer drop to
  single precision (quality is tolerance-tested, not bit-pinned).

Every stage runs in the calling thread; the only parallelism inside a
run is BLAS's own, whose thread count the owning
:class:`repro.api.Session` sets.

Equivalence contract, pinned on seeded cases in
``tests/qhd/test_engine.py``: complex128 runs are bit-exact against a
frozen copy of this loop, and against the solver's original inline loop
(per-step ``strang_step``, the model's dense field mat-vec) they give
identical samples, energies and trace coefficients, with mean positions
and trace energies equal to a relative ``1e-12`` — on random QUBOs and
on sparse and dense community QUBOs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.markers import hot_path
from repro.exceptions import SimulationError
from repro.hamiltonian.grid import PositionGrid, laplacian_eigensystem
from repro.hamiltonian.schedules import Schedule
from repro.qhd.result import QhdTrace
from repro.qubo.model import BaseQubo, QuboModel
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


@hot_path
def phase_ladder(theta: np.ndarray, out: np.ndarray) -> None:
    """Fill ``out[g] = exp(i (g + 1) theta)`` for every row ``g``.

    Row 0 takes one cos/sin of ``theta``.  Each doubling round then
    multiplies rows ``[0, c)`` by row ``c - 1`` into rows ``[c, 2c)``;
    the last round is partial when ``len(out)`` is not a power of two.

    Examples
    --------
    >>> import numpy as np
    >>> out = np.empty((3, 1), dtype=np.complex128)
    >>> phase_ladder(np.array([0.1]), out)
    >>> np.round(np.angle(out[:, 0]), 12).tolist()
    [0.1, 0.2, 0.3]
    """
    np.cos(theta, out=out[0].real)
    np.sin(theta, out=out[0].imag)
    rows = len(out)
    filled = 1
    while filled < rows:
        stop = min(2 * filled, rows)
        np.multiply(
            out[: stop - filled], out[filled - 1], out=out[filled:stop]
        )
        filled = stop


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
        ``"complex128"`` (default) or ``"complex64"`` (half the memory
        bandwidth, single-precision quality).

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

        self.grid = PositionGrid(
            self.grid_points, dtype=np.dtype(self._rdtype).name
        )
        self.points = self.grid.points
        self.spacing = self.grid.spacing

        # --- whole-run precomputation -------------------------------
        # Built in float64/complex128 in every mode; complex64 rounds
        # the finished table once.
        self.dt = self.t_final / self.n_steps
        times = [(step + 0.5) * self.dt for step in range(self.n_steps)]
        self._times = np.asarray(times, dtype=np.float64)
        self._kin, self._pot = schedule.coefficient_tables(times)
        energies, modes = laplacian_eigensystem(
            self.grid_points, self.spacing
        )
        phases = np.exp(((-1j * self._kin) * self.dt)[:, None] * energies)
        ops = np.matmul(modes * phases[:, None, :], modes)
        self._ops = ops.astype(self._cdtype, copy=False)
        # Kick angle per unit field at x_0 = h: the half-step phase
        # exp(-i pot_s (dt/2) f x_g) is exp(i (g+1) f angle_s).
        self._kick_angle = (-self._pot * (self.dt / 2.0)) * self.spacing

        # --- workspace buffers --------------------------------------
        flat = (self.n_samples, model.n_variables)
        shape = (self.grid_points,) + flat
        self._dens = np.empty(shape, dtype=self._rdtype)
        self._half = np.empty(shape, dtype=self._cdtype)
        self._work = np.empty(shape, dtype=self._cdtype)
        self._bool = np.empty(shape, dtype=bool)
        self._sums = np.empty(flat, dtype=self._rdtype)
        self._theta = np.empty(flat, dtype=self._rdtype)
        self._draws = np.empty(flat, dtype=np.float64)
        self._idx = np.empty(flat, dtype=np.int64)
        self._pos = np.empty(flat, dtype=self.points.dtype)
        self._mu = np.empty(flat, dtype=self._rdtype)
        self._psi = np.empty(shape, dtype=self._cdtype)
        # Block-structured coupling (the dense community QUBO): the
        # fields come from its two Kronecker factors, applied to the
        # positions viewed as (samples, n, k).
        terms = (
            model.kronecker_terms() if isinstance(model, QuboModel) else None
        )
        self._blocked = terms is not None
        if terms is not None:
            n_nodes, k, self._m_block, pair = terms
            self._pair_block = pair * (np.ones((k, k)) - np.eye(k))
            self._groups = (self.n_samples, n_nodes, k)
            self._fields = np.empty(flat, dtype=np.float64)
            self._pair_fields = np.empty(flat, dtype=np.float64)
            self._linear = np.asarray(model.effective_linear)
        self._evolved = False

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def complex_dtype(self) -> np.dtype:
        """The complex precision the engine evolves in."""
        return np.dtype(self._cdtype)

    @property
    def kinetic_operator_table(self) -> np.ndarray:
        """Fused ``(n_steps, grid, grid)`` kinetic operators (read-only)."""
        view = self._ops.view()
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
        is copied once into the engine's grid-major buffer, transposed
        and cast to the engine's precision, and is not mutated.  Call
        :meth:`measure` afterwards for the final normalised
        expectations and position draws.
        """
        psi0 = np.asarray(psi0)
        expected = self._sums.shape + (self.grid_points,)
        if psi0.shape != expected:
            raise SimulationError(
                f"psi0 must have shape {expected}, got {psi0.shape}"
            )
        np.copyto(self._psi, np.moveaxis(psi0, -1, 0))
        self._evolved = True
        return self._evolve(rng, budget, record_trace)

    def measure(
        self, rng: np.random.Generator, shots: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Normalise, then measure the evolved ensemble in one pass.

        Computes the final densities once and derives from that single
        array the per-sample expectations ``mu`` (shape
        ``(n_samples, n)``) and all ``shots`` inverse-CDF position draws
        (shape ``(shots, n_samples, n)``) — one CDF reused across
        shots, instead of ``shots`` full density recomputations.
        """
        if not self._evolved:
            raise SimulationError("measure() requires evolve() first")
        check_integer(shots, "shots", minimum=0)
        self._normalize()
        dens = self._dens
        self._density()
        self._check_mass()
        np.divide(dens, self._sums, out=dens)
        mu = self.points @ dens.reshape(self.grid_points, -1)
        self._cumulate()
        positions = np.empty(
            (shots,) + self._pos.shape, dtype=self._pos.dtype
        )
        for shot in range(shots):
            rng.random(out=self._draws)
            self._inverse_cdf(positions[shot])
        return mu.reshape(self._mu.shape), positions

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
            if self._blocked:
                fields = self._block_fields()
            else:
                fields = np.asarray(
                    self._model.local_fields_batch(self._pos),
                    dtype=np.float64,
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
        dens = self._dens
        self._density()
        self._check_mass()
        np.divide(dens, self._sums, out=dens)
        mu: np.ndarray | None = None
        if full_mu:
            np.matmul(
                self.points,
                dens.reshape(self.grid_points, -1),
                out=self._mu.reshape(-1),
            )
            mu = self._mu
            mu0 = mu[0]
        else:
            mu0 = self.points @ dens[:, 0, :]
        self._cumulate()
        # One full-batch draw per step, in the (samples, n) order of the
        # pre-engine loop's rng.random(size=(samples, n, 1)) call.
        rng.random(out=self._draws)
        self._inverse_cdf(self._pos)
        self._pos[0] = mu0
        return mu

    @hot_path
    def _block_fields(self) -> np.ndarray:
        """Mean-field fields ``2 pos S + c`` from the coupling's factors.

        With ``S = M ⊗ I_k + I_n ⊗ A``, ``A = a (J_k - I_k)``, and each
        sample's positions viewed as an ``(n, k)`` matrix ``P``,
        ``pos S`` is ``M @ P + P @ A``: one stacked
        ``(n, n) @ (n, k)`` matmul per sample and one
        ``(samples * n, k) @ (k, k)`` matmul, in place of the
        ``(samples, nk) @ (nk, nk)`` mat-vec.  The sums run in a
        different order, so the fields differ from
        ``local_fields_batch`` in the last bits.  (In complex64 mode
        the float32 positions are cast up for the float64 matmuls.)
        """
        fields, pair = self._fields, self._pair_fields
        k = self._groups[2]
        np.matmul(
            self._m_block,
            self._pos.reshape(self._groups),
            out=fields.reshape(self._groups),
        )
        np.matmul(
            self._pos.reshape(-1, k), self._pair_block, out=pair.reshape(-1, k)
        )
        np.add(fields, pair, out=fields)
        np.multiply(fields, 2.0, out=fields)
        np.add(fields, self._linear, out=fields)
        return fields

    @hot_path
    def _density(self) -> None:
        """``|psi|^2`` and its grid-axis mass."""
        dens = self._dens
        np.absolute(self._psi, out=dens)
        np.square(dens, out=dens)
        np.sum(dens, axis=0, out=self._sums)

    def _check_mass(self) -> None:
        if np.any(self._sums <= 0):
            raise SimulationError("cannot normalise zero probability mass")

    @hot_path
    def _cumulate(self) -> None:
        """In-place CDF along the grid axis, in ``np.cumsum``'s order."""
        dens = self._dens
        for g in range(1, self.grid_points):
            np.add(dens[g - 1], dens[g], out=dens[g])

    @hot_path
    def _inverse_cdf(self, out: np.ndarray) -> None:
        """Inverse-CDF position draw into ``out`` (cdf in ``_dens``)."""
        np.less(self._dens, self._draws, out=self._bool)
        np.sum(self._bool, axis=0, out=self._idx)
        np.clip(self._idx, 0, self.grid_points - 1, out=self._idx)
        np.take(self.points, self._idx, out=out)

    @hot_path
    def _strang_step(self, step: int, fields: np.ndarray) -> None:
        """One in-place Strang step: kick, fused kinetic matmul, kick."""
        psi, half, work = self._psi, self._half, self._work
        np.multiply(fields, self._kick_angle[step], out=self._theta)
        phase_ladder(self._theta, half)
        np.multiply(psi, half, out=work)
        np.matmul(
            self._ops[step],
            work.reshape(self.grid_points, -1),
            out=psi.reshape(self.grid_points, -1),
        )
        np.multiply(psi, half, out=psi)

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
