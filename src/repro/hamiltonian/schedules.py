"""Time-dependence schedules for the QHD Hamiltonian.

QHD evolves under ``H(t) = e^{phi(t)} (-1/2 Laplacian) + e^{chi(t)} f(x)``
where the damping parameters ``e^{phi}`` (kinetic) decay and ``e^{chi}``
(potential) grow.  The polynomial default below reproduces the three-phase
behaviour the QHD paper describes — *kinetic* (free spreading), *global
search* (tunnelling between basins) and *descent* (localisation in the best
basin).  Linear and exponential alternatives are provided for the schedule
ablation (ABL-SCHED in :mod:`repro.experiments.ablations`).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Iterable

import numpy as np

from repro.exceptions import ScheduleError
from repro.utils.validation import check_positive


class Schedule(ABC):
    """Time-dependent coefficients of the QHD Hamiltonian on ``[0, t_final]``."""

    def __init__(self, t_final: float) -> None:
        self.t_final = check_positive(t_final, "t_final")

    @abstractmethod
    def kinetic(self, t: float) -> float:
        """Kinetic coefficient ``e^{phi(t)}`` at time ``t``."""

    @abstractmethod
    def potential(self, t: float) -> float:
        """Potential coefficient ``e^{chi(t)}`` at time ``t``."""

    def coefficient_tables(
        self, times: Iterable[float]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Kinetic and potential coefficients at every listed time.

        The whole-run precomputation entry point of the QHD evolution
        engine: one float64 array per coefficient, evaluated through the
        scalar :meth:`kinetic` / :meth:`potential` methods so the table
        entries are bit-identical to per-step scalar calls.

        Examples
        --------
        >>> kin, pot = get_schedule("linear", 1.0).coefficient_tables(
        ...     [0.25, 0.75])
        >>> kin.shape, pot.shape
        ((2,), (2,))
        """
        ts = [float(t) for t in times]
        kinetic = np.array([self.kinetic(t) for t in ts], dtype=np.float64)
        potential = np.array(
            [self.potential(t) for t in ts], dtype=np.float64
        )
        return kinetic, potential

    def _check_time(self, t: float) -> float:
        if not 0.0 <= t <= self.t_final * (1.0 + 1e-9):
            raise ScheduleError(
                f"t={t} outside [0, {self.t_final}]"
            )
        return min(float(t), self.t_final)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(t_final={self.t_final:g})"


class QhdDefaultSchedule(Schedule):
    """The QHD polynomial schedule (default).

    ``e^{phi(t)} = 2 / (eps + gamma t^3)`` and
    ``e^{chi(t)} = eps + gamma t^3``:
    at early times the kinetic term dominates by a factor ``~1/eps^2``
    (kinetic phase); the cubic crossover produces the global-search phase;
    late times are potential-dominated (descent phase).

    Parameters
    ----------
    t_final:
        Evolution horizon.
    gamma:
        Rate of the cubic crossover; larger values shift the descent phase
        earlier.
    epsilon:
        Regulariser keeping both coefficients finite and positive at t=0.
    """

    def __init__(
        self, t_final: float, gamma: float = 8.0, epsilon: float = 1e-2
    ) -> None:
        super().__init__(t_final)
        self.gamma = check_positive(gamma, "gamma")
        self.epsilon = check_positive(epsilon, "epsilon")

    def _envelope(self, t: float) -> float:
        return self.epsilon + self.gamma * t**3

    def kinetic(self, t: float) -> float:
        t = self._check_time(t)
        return 2.0 / self._envelope(t)

    def potential(self, t: float) -> float:
        t = self._check_time(t)
        return self._envelope(t)


class LinearSchedule(Schedule):
    """Annealing-style linear interpolation.

    ``e^{phi} = (1 - s) + floor`` and ``e^{chi} = s * scale + floor`` with
    ``s = t / t_final``; the floors keep both terms active throughout, which
    the split-operator integrator requires.
    """

    def __init__(
        self, t_final: float, scale: float = 10.0, floor: float = 1e-3
    ) -> None:
        super().__init__(t_final)
        self.scale = check_positive(scale, "scale")
        self.floor = check_positive(floor, "floor")

    def kinetic(self, t: float) -> float:
        s = self._check_time(t) / self.t_final
        return (1.0 - s) + self.floor

    def potential(self, t: float) -> float:
        s = self._check_time(t) / self.t_final
        return s * self.scale + self.floor


class ExponentialSchedule(Schedule):
    """Exponential crossover: fast kinetic decay, fast potential growth.

    ``e^{phi} = exp(-rate s)`` and ``e^{chi} = scale * exp(rate (s - 1))``
    with ``s = t / t_final``.
    """

    def __init__(
        self, t_final: float, rate: float = 6.0, scale: float = 10.0
    ) -> None:
        super().__init__(t_final)
        self.rate = check_positive(rate, "rate")
        self.scale = check_positive(scale, "scale")

    def kinetic(self, t: float) -> float:
        s = self._check_time(t) / self.t_final
        return math.exp(-self.rate * s)

    def potential(self, t: float) -> float:
        s = self._check_time(t) / self.t_final
        return self.scale * math.exp(self.rate * (s - 1.0))


_SCHEDULES = {
    "qhd-default": QhdDefaultSchedule,
    "linear": LinearSchedule,
    "exponential": ExponentialSchedule,
}


def get_schedule(name: str, t_final: float, **kwargs: float) -> Schedule:
    """Factory by name: ``qhd-default``, ``linear`` or ``exponential``.

    Examples
    --------
    >>> get_schedule("linear", 1.0).kinetic(0.0) > 0
    True
    """
    try:
        cls = _SCHEDULES[name]
    except KeyError:
        known = ", ".join(sorted(_SCHEDULES))
        raise ScheduleError(
            f"unknown schedule {name!r}; known schedules: {known}"
        ) from None
    return cls(t_final, **kwargs)


def available_schedules() -> list[str]:
    """Names accepted by :func:`get_schedule`."""
    return sorted(_SCHEDULES)
