"""Shared utilities: seeded RNG handling, timing, validation helpers."""

from repro.utils.rng import ensure_rng
from repro.utils.timer import Stopwatch, TimeBudget
from repro.utils.validation import (
    check_integer,
    check_positive,
    check_probability,
    check_square_matrix,
)

__all__ = [
    "ensure_rng",
    "Stopwatch",
    "TimeBudget",
    "check_integer",
    "check_positive",
    "check_probability",
    "check_square_matrix",
]
