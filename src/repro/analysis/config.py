"""Lint configuration, with optional ``pyproject.toml`` overrides.

Defaults encode the repository's own contracts; a ``[tool.repro.lint]``
table in ``pyproject.toml`` can disable rules or extend the path/marker
lists without touching the engine::

    [tool.repro.lint]
    disable = ["REP002"]
    hot-functions = ["MyEngine.step"]
    rep003-allowed = ["src/myplugin/"]
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any


@dataclass(frozen=True)
class LintConfig:
    """Knobs shared by every rule run.

    Attributes
    ----------
    disable:
        Rule ids excluded from the run (``--rule`` on the CLI narrows
        further).
    hot_functions:
        Qualified names (``Class.method`` or ``function``) put under
        REP002's allocation discipline *in addition to* bodies marked
        with the ``@hot_path`` decorator.
    rep001_exempt:
        Path suffixes where ``flip_delta``/``flip_deltas`` calls inside
        loops are the delta engine's own implementation, not a solver
        bypassing it.
    rep003_allowed:
        Path fragments allowed to construct registered solver/detector
        classes directly (the ``repro.api`` facade itself, tests and
        fixture trees).  Registration sites — modules that register at
        least one class — are always allowed.
    rep005_allow_pickle:
        Path fragments exempt from the object-graph-pickling ban.
    rep006_exempt:
        Path suffixes where ``repatch`` calls inside loops are the
        delta engine's own implementation, not streaming code hiding a
        per-iteration re-materialisation.
    """

    disable: tuple[str, ...] = ()
    hot_functions: tuple[str, ...] = ()
    rep001_exempt: tuple[str, ...] = (
        "qubo/model.py",
        "qubo/sparse.py",
        "qubo/delta.py",
    )
    rep003_allowed: tuple[str, ...] = field(
        default=("repro/api/", "tests/", "conftest.py")
    )
    rep005_allow_pickle: tuple[str, ...] = ()
    rep006_exempt: tuple[str, ...] = ("qubo/delta.py",)

    def without_rules(self, disable: tuple[str, ...]) -> "LintConfig":
        """A copy with ``disable`` merged in."""
        merged = tuple(dict.fromkeys(self.disable + disable))
        return replace(self, disable=merged)


#: ``[tool.repro.lint]`` key -> LintConfig field.
_TOML_KEYS = {
    "disable": "disable",
    "hot-functions": "hot_functions",
    "rep001-exempt": "rep001_exempt",
    "rep003-allowed": "rep003_allowed",
    "rep005-allow-pickle": "rep005_allow_pickle",
    "rep006-exempt": "rep006_exempt",
}


def load_config(pyproject: str | Path | None = None) -> LintConfig:
    """The lint config, with ``pyproject.toml`` overrides when present.

    ``pyproject=None`` looks for ``pyproject.toml`` in the working
    directory; a missing file (or a file without a ``[tool.repro.lint]``
    table) yields the defaults.  Unknown keys raise, mirroring the
    strict-config behaviour of ``repro.api``.
    """
    path = Path(pyproject) if pyproject is not None else Path("pyproject.toml")
    if not path.is_file():
        return LintConfig()
    with path.open("rb") as handle:
        data: dict[str, Any] = tomllib.load(handle)
    table = data.get("tool", {}).get("repro", {}).get("lint", {})
    if not table:
        return LintConfig()
    unknown = sorted(set(table) - set(_TOML_KEYS))
    if unknown:
        known = ", ".join(sorted(_TOML_KEYS))
        raise ValueError(
            f"unknown [tool.repro.lint] keys {unknown}; known: {known}"
        )
    overrides = {
        _TOML_KEYS[key]: tuple(str(item) for item in value)
        for key, value in table.items()
    }
    return replace(LintConfig(), **overrides)
