"""Quantum Hamiltonian Descent solver for QUBO problems (paper §IV-A).

The production solver (:class:`QhdSolver`) simulates QHD with a mean-field
product-state ansatz — one 1-D wavefunction per QUBO variable, batched over
samples — using only matrix multiplications, then rounds and classically
refines the measured bitstrings.  :mod:`repro.qhd.exact` holds exact (full
tensor-grid) simulators used to validate the dynamics on small systems.
"""

from repro.qhd.engine import EvolutionEngine, EvolutionOutcome
from repro.qhd.solver import QhdSolver
from repro.qhd.result import QhdDetails, QhdTrace
from repro.qhd.refinement import refine_candidates, round_positions
from repro.qhd.exact import ExactQhd1D, ExactQuboQhd

__all__ = [
    "QhdSolver",
    "EvolutionEngine",
    "EvolutionOutcome",
    "QhdDetails",
    "QhdTrace",
    "refine_candidates",
    "round_positions",
    "ExactQhd1D",
    "ExactQuboQhd",
]
