"""Declarative configuration round-trips for solvers and detectors.

:class:`Configurable` is the mixin behind the ``repro.api`` facade's
"one dict describes one component" contract: every registered solver and
detector can be built from a plain config dict (``from_config``) and
serialised back into one (``to_config``) such that

    cls.from_config(obj.to_config()).to_config() == obj.to_config()

holds.  The mixin derives the config schema from the constructor
signature, so classes only need to store each constructor parameter as
an attribute (``self.<name>``, the private ``self._<name>``, or an
explicit ``_config_aliases`` entry when the stored attribute is a
normalised form of the argument).
"""

from __future__ import annotations

import dataclasses
import inspect
import math
from typing import Any, TypeVar

from repro.exceptions import ReproError

_C = TypeVar("_C", bound="Configurable")


class ConfigError(ReproError):
    """Raised for invalid ``from_config`` / ``to_config`` usage."""


def _init_fields(cls: type) -> tuple[str, ...]:
    """Constructor parameter names of ``cls`` (excluding ``self``/varargs)."""
    if dataclasses.is_dataclass(cls):
        return tuple(f.name for f in dataclasses.fields(cls) if f.init)
    params = inspect.signature(cls.__init__).parameters
    return tuple(
        name
        for name, p in params.items()
        if name != "self"
        and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
    )


class Configurable:
    """Mixin adding dict-config construction and serialisation.

    Every registered solver and detector mixes this in, giving the
    ``repro.api`` facade its "one JSON dict describes one component"
    contract.

    Examples
    --------
    >>> from repro.api import SOLVERS
    >>> solver = SOLVERS.get("tabu").from_config({"n_iterations": 500})
    >>> solver.to_config()["n_iterations"]
    500
    >>> try:  # unknown keys are rejected, naming the known ones
    ...     SOLVERS.get("tabu").from_config({"bogus": 1})
    ... except ConfigError as err:
    ...     "known keys" in str(err)
    True
    """

    #: Constructor-parameter -> stored-attribute overrides, for classes
    #: that normalise an argument on assignment but keep the original
    #: under a different attribute (e.g. QhdSolver's ``schedule``).
    _config_aliases: dict[str, str] = {}

    @classmethod
    def config_fields(cls) -> tuple[str, ...]:
        """Names of the config keys accepted by :meth:`from_config`.

        Examples
        --------
        >>> from repro.api import SOLVERS
        >>> "n_sweeps" in SOLVERS.get("simulated-annealing").config_fields()
        True
        """
        return _init_fields(cls)

    @classmethod
    def _coerce_config(cls, config: dict[str, Any]) -> dict[str, Any]:
        """Hook: normalise nested values (spec dicts -> objects)."""
        return config

    @classmethod
    def from_config(
        cls: type[_C], config: dict[str, Any] | None = None
    ) -> _C:
        """Instantiate from a config dict, rejecting unknown keys.

        A constructor's ``TypeError`` or ``ValueError`` (a value of the
        wrong type or out of range) is re-raised as :class:`ConfigError`
        naming the class.

        Examples
        --------
        >>> from repro.solvers import GreedySolver
        >>> GreedySolver.from_config({"n_restarts": 3}).n_restarts
        3
        """
        config = {} if config is None else config
        if not isinstance(config, dict):
            raise ConfigError(
                f"{cls.__name__}.from_config expects a dict, "
                f"got {type(config).__name__}"
            )
        known = cls.config_fields()
        unknown = sorted(set(config) - set(known))
        if unknown:
            raise ConfigError(
                f"unknown config keys for {cls.__name__}: {unknown}; "
                f"known keys: {sorted(known)}"
            )
        config = cls._coerce_config(dict(config))
        try:
            return cls(**config)
        except (TypeError, ValueError) as error:
            raise ConfigError(
                f"invalid config for {cls.__name__}: {error}"
            ) from error

    def to_config(self) -> dict[str, Any]:
        """Serialise the instance back into a config dict.

        Non-finite floats lower to ``None`` so the dict survives strict
        ``json.dumps`` (``Infinity`` is not valid JSON); constructors
        read ``None`` back as the non-finite sentinel (e.g. solver
        ``time_limit=None`` -> no limit).

        Examples
        --------
        >>> from repro.solvers import TabuSolver
        >>> TabuSolver().to_config()["time_limit"] is None  # inf -> None
        True
        """
        config: dict[str, Any] = {}
        for name in self.config_fields():
            alias = self._config_aliases.get(name)
            if alias is not None and hasattr(self, alias):
                value = getattr(self, alias)
            elif hasattr(self, name):
                value = getattr(self, name)
            elif hasattr(self, "_" + name):
                value = getattr(self, "_" + name)
            else:
                raise ConfigError(
                    f"{type(self).__name__} does not store constructor "
                    f"parameter {name!r}; add a _config_aliases entry"
                )
            if isinstance(value, float) and not math.isfinite(value):
                value = None
            config[name] = value
        return config
