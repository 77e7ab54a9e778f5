"""Split-operator time stepping for batched 1-D Schrödinger evolution.

One Strang step of the QHD Hamiltonian
``H = a K + g V`` (``K = -1/2 Laplacian``, ``V`` diagonal in position) is

    Psi  <-  e^{-i g V dt/2}  e^{-i a K dt}  e^{-i g V dt/2}  Psi ,

second-order accurate in ``dt``.  The kinetic factor is applied exactly in
the discrete sine eigenbasis: two dense ``(grid x grid)`` matmuls batched
over arbitrary leading dimensions (samples x variables), which is the
paper's "matrix multiplication only" formulation of QHD (§IV-A) and maps
directly onto GPU batched GEMM in the authors' implementation.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import SimulationError
from repro.hamiltonian.grid import laplacian_eigensystem
from repro.utils.validation import check_integer, check_positive


class KineticPropagator:
    """Exact kinetic propagator ``exp(-i a K dt)`` on a Dirichlet grid.

    Parameters
    ----------
    n_points:
        Interior grid size.
    spacing:
        Grid spacing ``h``.

    Notes
    -----
    The eigenbasis is precomputed once; each application costs two batched
    matmuls against the ``(n_points, n_points)`` mode matrix.  The mode
    matrix is orthogonal and symmetric, so no transposes are needed.
    """

    def __init__(self, n_points: int, spacing: float) -> None:
        check_integer(n_points, "n_points", minimum=2)
        check_positive(spacing, "spacing")
        self.n_points = int(n_points)
        self.spacing = float(spacing)
        self._energies, self._modes = laplacian_eigensystem(
            n_points, spacing
        )

    @property
    def energies(self) -> np.ndarray:
        """Kinetic eigenvalues (read-only)."""
        view = self._energies.view()
        view.flags.writeable = False
        return view

    @property
    def modes(self) -> np.ndarray:
        """Orthonormal sine modes, one eigenvector per column (read-only)."""
        view = self._modes.view()
        view.flags.writeable = False
        return view

    def apply(
        self, psi: np.ndarray, dt: float, kinetic_scale: float
    ) -> np.ndarray:
        """Apply ``exp(-i * kinetic_scale * K * dt)`` to ``psi``.

        ``psi`` may have any leading batch shape; the last axis must be the
        grid axis of length ``n_points``.
        """
        if psi.shape[-1] != self.n_points:
            raise SimulationError(
                f"last axis of psi must be {self.n_points}, "
                f"got {psi.shape[-1]}"
            )
        phase = np.exp(-1j * kinetic_scale * dt * self._energies)
        # modes is symmetric-orthogonal: psi -> modes diag(phase) modes psi.
        spectral = psi @ self._modes
        spectral = spectral * phase
        return spectral @ self._modes


def potential_phase(
    potential: np.ndarray, dt: float, potential_scale: float
) -> np.ndarray:
    """Diagonal position-space phase ``exp(-i * scale * V * dt)``."""
    return np.exp(-1j * potential_scale * dt * potential)


def strang_step(
    psi: np.ndarray,
    potential: np.ndarray,
    kinetic: KineticPropagator,
    dt: float,
    kinetic_scale: float,
    potential_scale: float,
) -> np.ndarray:
    """One second-order Strang split step of ``H = a K + g V``.

    Parameters
    ----------
    psi:
        Complex wavefunctions; last axis is the grid axis.
    potential:
        Potential values on the grid, broadcastable against ``psi``.
    kinetic:
        Prebuilt :class:`KineticPropagator` for the grid.
    dt:
        Time step.
    kinetic_scale, potential_scale:
        Schedule coefficients ``e^{phi(t)}`` and ``e^{chi(t)}`` frozen at
        the midpoint of the step.

    Returns
    -------
    The evolved wavefunctions (new array; the input is not mutated).
    """
    half = potential_phase(potential, dt / 2.0, potential_scale)
    psi = psi * half
    psi = kinetic.apply(psi, dt, kinetic_scale)
    return psi * half
