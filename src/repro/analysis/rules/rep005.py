"""REP005 — serialisation and lock safety.

Two invariants of the library code:

* **No hand-rolled pickling.**  Importing ``pickle`` (or friends) in
  library code is flagged outright.  What the library persists or
  serves goes through the JSON ``to_dict`` forms; the only pickling is
  the process executor's own, of the task arguments it ships.

* **Lock-guarded fields.**  A class declaring
  ``_locked_fields = ("_runs", ...)`` promises that every write to
  those attributes outside ``__init__`` happens under
  ``with self._lock`` (the :class:`repro.api.Session` discipline that
  keeps its run counters exact and its executor handles race-free
  under concurrent callers).  Plain, augmented and tuple-unpacking
  assignments — including subscript stores like
  ``self._idle[key] = ...`` — are checked lexically against the
  enclosing ``with`` blocks.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import FileContext, dotted_name
from repro.analysis.findings import Finding
from repro.analysis.registry import RULES, Rule

#: Object-graph serialisers banned from library code.
_PICKLE_MODULES = frozenset(
    {"pickle", "cPickle", "dill", "cloudpickle", "shelve", "marshal"}
)


@RULES.register("REP005")
class WireLockSafety(Rule):
    """Flag pickle imports and unguarded writes to locked fields."""

    summary = (
        "serialisation/lock safety: no pickle imports (use the JSON "
        "to_dict forms); _locked_fields writes happen under "
        "'with self._lock'"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        allow_pickle = ctx.path_matches(ctx.config.rep005_allow_pickle)
        for node in ast.walk(ctx.tree):
            if not allow_pickle and isinstance(
                node, (ast.Import, ast.ImportFrom)
            ):
                yield from self._check_import(ctx, node)
            elif isinstance(node, ast.ClassDef):
                yield from self._check_locked_fields(ctx, node)

    # ------------------------------------------------------------------
    # Pickle ban
    # ------------------------------------------------------------------
    def _check_import(
        self, ctx: FileContext, node: ast.Import | ast.ImportFrom
    ) -> Iterator[Finding]:
        if isinstance(node, ast.Import):
            modules = [alias.name.split(".")[0] for alias in node.names]
        else:
            modules = [(node.module or "").split(".")[0]]
        for module in modules:
            if module in _PICKLE_MODULES:
                yield self.finding(
                    ctx,
                    node,
                    f"import of {module!r}: library code serialises "
                    f"through the JSON to_dict forms, never by "
                    f"pickling by hand",
                )

    # ------------------------------------------------------------------
    # _locked_fields discipline
    # ------------------------------------------------------------------
    def _locked_names(self, cls: ast.ClassDef) -> frozenset[str]:
        for stmt in cls.body:
            if not isinstance(stmt, ast.Assign):
                continue
            targets = [
                t.id for t in stmt.targets if isinstance(t, ast.Name)
            ]
            if "_locked_fields" not in targets:
                continue
            if isinstance(stmt.value, (ast.Tuple, ast.List)):
                return frozenset(
                    elt.value
                    for elt in stmt.value.elts
                    if isinstance(elt, ast.Constant)
                    and isinstance(elt.value, str)
                )
        return frozenset()

    def _check_locked_fields(
        self, ctx: FileContext, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        locked = self._locked_names(cls)
        if not locked:
            return
        for stmt in cls.body:
            if (
                isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                and stmt.name != "__init__"
            ):
                yield from self._check_method(ctx, stmt, locked, guarded=False)

    def _check_method(
        self,
        ctx: FileContext,
        node: ast.AST,
        locked: frozenset[str],
        guarded: bool,
    ) -> Iterator[Finding]:
        """Walk statements tracking the enclosing ``with self._lock``."""
        for child in ast.iter_child_nodes(node):
            child_guarded = guarded
            if isinstance(child, (ast.With, ast.AsyncWith)):
                child_guarded = guarded or any(
                    self._is_lock_expr(item.context_expr)
                    for item in child.items
                )
            elif isinstance(child, (ast.Assign, ast.AugAssign)):
                yield from self._check_write(ctx, child, locked, guarded)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Nested function: a fresh lexical scope, same guard
                # state is conservative either way; keep the current one.
                child_guarded = guarded
            yield from self._check_method(ctx, child, locked, child_guarded)

    def _is_lock_expr(self, expr: ast.expr) -> bool:
        name = dotted_name(expr)
        return name is not None and name.split(".")[-1].endswith("lock")

    def _locked_target(
        self, target: ast.expr, locked: frozenset[str]
    ) -> str | None:
        if isinstance(target, ast.Subscript):
            target = target.value
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and target.attr in locked
        ):
            return target.attr
        return None

    def _check_write(
        self,
        ctx: FileContext,
        node: ast.Assign | ast.AugAssign,
        locked: frozenset[str],
        guarded: bool,
    ) -> Iterator[Finding]:
        if guarded:
            return
        targets: list[ast.expr] = (
            list(node.targets)
            if isinstance(node, ast.Assign)
            else [node.target]
        )
        while targets:
            target = targets.pop()
            if isinstance(target, (ast.Tuple, ast.List)):
                targets.extend(target.elts)
                continue
            if isinstance(target, ast.Starred):
                targets.append(target.value)
                continue
            name = self._locked_target(target, locked)
            if name is not None:
                yield self.finding(
                    ctx,
                    node,
                    f"write to locked field 'self.{name}' outside "
                    f"'with self._lock' (declared in _locked_fields); "
                    f"unguarded writes race concurrent callers",
                )
