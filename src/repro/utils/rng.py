"""Seeded random-number-generator helpers.

Every stochastic component in the library accepts a ``seed`` argument that may
be ``None``, an integer, or an already-constructed
:class:`numpy.random.Generator`.  :func:`ensure_rng` normalises all three into
a ``Generator`` so downstream code never branches on the seed type.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator]


def ensure_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for any accepted seed form.

    Parameters
    ----------
    seed:
        ``None`` for OS entropy, an ``int`` for a reproducible stream, or an
        existing ``Generator`` which is returned unchanged (no copy).

    Examples
    --------
    >>> rng = ensure_rng(7)
    >>> rng2 = ensure_rng(7)
    >>> float(rng.random()) == float(rng2.random())
    True
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None or isinstance(seed, (int, np.integer)):
        return np.random.default_rng(seed)
    raise TypeError(
        "seed must be None, an int, or a numpy Generator, "
        f"got {type(seed).__name__}"
    )


def derive_seed(seed: SeedLike, stream: int) -> Optional[int]:
    """Derive a deterministic integer sub-seed for a named stream.

    Useful when a component must pass an *integer* seed to code it does not
    control.  ``None`` stays ``None`` (full entropy); integers are mixed with
    the stream index through SeedSequence so different streams decorrelate.
    """
    if seed is None:
        return None
    if isinstance(seed, np.random.Generator):
        # Draw a fresh integer from the generator itself.
        return int(seed.integers(0, 2**63 - 1))
    seq = np.random.SeedSequence([int(seed), int(stream)])
    return int(seq.generate_state(1, dtype=np.uint64)[0] % (2**63 - 1))
