"""Hamiltonian-simulation substrate for Quantum Hamiltonian Descent.

Implements the discretised pieces of the QHD evolution (paper §IV-A)

    i dPsi/dt = [ e^{phi(t)} (-1/2 Laplacian) + e^{chi(t)} f(x) ] Psi

on 1-D position grids: Dirichlet Laplacians with analytic eigensystems,
time-dependence schedules for the damping parameters, and batched
split-operator propagators built from matrix multiplications only.
"""

from repro.hamiltonian.grid import (
    PositionGrid,
    dirichlet_laplacian,
    laplacian_eigensystem,
)
from repro.hamiltonian.schedules import (
    ExponentialSchedule,
    LinearSchedule,
    QhdDefaultSchedule,
    Schedule,
    get_schedule,
)
from repro.hamiltonian.propagator import KineticPropagator, strang_step
from repro.hamiltonian.observables import (
    norms,
    normalize,
    position_expectations,
    probability_densities,
    sample_positions,
)

__all__ = [
    "PositionGrid",
    "dirichlet_laplacian",
    "laplacian_eigensystem",
    "Schedule",
    "QhdDefaultSchedule",
    "LinearSchedule",
    "ExponentialSchedule",
    "get_schedule",
    "KineticPropagator",
    "strang_step",
    "norms",
    "normalize",
    "position_expectations",
    "probability_densities",
    "sample_positions",
]
