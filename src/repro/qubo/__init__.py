"""QUBO substrate: model containers, community-detection builders, decoding.

Two storage backends share the :class:`BaseQubo` interface:
:class:`QuboModel` (dense) and :class:`SparseQuboModel` (CSR couplings
plus low-rank factors).  :func:`build_community_qubo` selects between
them automatically — dense when ``n * k <= DENSE_VARIABLE_LIMIT`` (2048)
or the estimated stored-coefficient density exceeds
``DENSE_DENSITY_LIMIT`` (25%), sparse otherwise; pass
``backend="dense"`` / ``backend="sparse"`` to force either (see
:func:`select_backend`).  The sparse path never allocates an
O((n·k)^2) array.
"""

from repro.qubo.model import BaseQubo, QuboModel
from repro.qubo.sparse import SparseQuboModel
from repro.qubo.delta import BatchFlipDeltaState, FlipDeltaState
from repro.qubo.builders import (
    DENSE_DENSITY_LIMIT,
    DENSE_VARIABLE_LIMIT,
    CommunityQubo,
    VariableMap,
    build_community_qubo,
    default_penalties,
    select_backend,
)
from repro.qubo.decode import (
    assignment_violations,
    decode_assignment,
    labels_to_one_hot,
)
from repro.qubo.random_instances import (
    PortfolioGenerator,
    PortfolioSpec,
    QuboInstance,
    random_qubo,
)
from repro.qubo.streaming import CommunityQuboPatcher
from repro.qubo.analysis import qubo_density


__all__ = [
    "BaseQubo",
    "QuboModel",
    "SparseQuboModel",
    "FlipDeltaState",
    "BatchFlipDeltaState",
    "CommunityQubo",
    "CommunityQuboPatcher",
    "VariableMap",
    "build_community_qubo",
    "default_penalties",
    "select_backend",
    "DENSE_VARIABLE_LIMIT",
    "DENSE_DENSITY_LIMIT",
    "assignment_violations",
    "decode_assignment",
    "labels_to_one_hot",
    "PortfolioGenerator",
    "PortfolioSpec",
    "QuboInstance",
    "random_qubo",
    "qubo_density",
]
