"""Classical post-processing of QHD measurements (paper §IV-A).

QHDOPT projects measured continuous solutions back to the feasible binary
set and polishes them with a classical optimizer.  Here that means rounding
positions at 1/2 and running the vectorised 1-opt local search over the
whole candidate batch.  The candidates arrive from the evolution engine's
single-pass measurement (:meth:`repro.qhd.engine.EvolutionEngine.measure`
draws every shot from one final density/CDF pass), and the descent
consumes the incremental :class:`~repro.qubo.delta.BatchFlipDeltaState`
engine (via :func:`repro.solvers.greedy.local_search_batch`): fields are
materialised once for the whole candidate population, each sweep's move
comes from the fused ``best_flips`` argmin over the maintained fields
and flip signs, and each accepted flip is an O(row nnz) update.  A
candidate that stops improving leaves the working set, so a sweep's
argmin, row gather and field add run only over the candidates still
descending — refinement never pays a full batch mat-vec per sweep.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import QuboError
from repro.qubo.model import QuboModel
from repro.solvers.greedy import local_search_batch


def round_positions(positions: np.ndarray) -> np.ndarray:
    """Round relaxed positions in [0, 1] to binary at threshold 1/2."""
    return (np.asarray(positions, dtype=np.float64) > 0.5).astype(np.float64)


def refine_candidates(
    model: QuboModel,
    candidates: np.ndarray,
    max_sweeps: int = 100,
) -> tuple[np.ndarray, np.ndarray]:
    """Deduplicate, then locally refine a batch of binary candidates.

    Parameters
    ----------
    model:
        The QUBO being solved.
    candidates:
        Binary matrix ``(n_candidates, n_variables)``; any entry other
        than 0 or 1 raises :class:`~repro.exceptions.QuboError`.
    max_sweeps:
        Cap on 1-opt sweeps (each sweep flips at most one bit per row);
        ``0`` only deduplicates and evaluates.

    Returns
    -------
    (xs, energies):
        Refined unique candidates (int8) and their energies, the
        unique rows in ``np.unique(candidates, axis=0)`` order.
    """
    batch = np.asarray(candidates, dtype=np.float64)
    if batch.ndim != 2:
        raise ValueError(
            f"candidates must be 2-D, got shape {batch.shape}"
        )
    if not np.all((batch == 0.0) | (batch == 1.0)):
        raise QuboError("candidates must be binary (every entry 0 or 1)")
    # The rows of ``np.unique(batch, axis=0)``, in its order: packed
    # bits sort lexicographically exactly as the 0/1 rows do, at an
    # eighth of the width, and each unique row is taken from the input.
    _, first = np.unique(
        np.packbits(batch == 1.0, axis=1), axis=0, return_index=True
    )
    unique = batch[first]
    if max_sweeps <= 0:
        return unique.astype(np.int8), model.evaluate_batch(unique)
    return local_search_batch(model, unique, max_sweeps=max_sweeps)
