"""Density of QUBO instances.

The paper stratifies its portfolio results by instance size and sparsity
(§V-B: mean density 0.157 for optimally solved vs 0.028 for time-limited
instances); :func:`qubo_density` computes the matching statistic for
generated instances, which the Figure 3/4 portfolio rows report next to
the paper's numbers.
"""

from __future__ import annotations

import numpy as np

from repro.qubo.model import BaseQubo
from repro.qubo.sparse import SparseQuboModel


def qubo_density(model: BaseQubo) -> float:
    """Fraction of nonzero off-diagonal couplings.

    Computed on the symmetrised coupling matrix over the ``n (n - 1)``
    ordered off-diagonal slots, matching the sparsity statistic the paper
    reports for its portfolio.  For sparse models only explicitly stored
    couplings are counted (factor terms would densify the count).
    """
    n = model.n_variables
    if n < 2:
        return 0.0
    if isinstance(model, SparseQuboModel):
        return model.density()
    nonzero = int(np.count_nonzero(model.coupling))
    return nonzero / (n * (n - 1))
