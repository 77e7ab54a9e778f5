"""REP002 — allocation discipline in declared hot paths (PR 4 contract).

The evolution engine's per-step stages and the flip-delta state's flip
methods are declared zero-allocation: every grid- or population-sized
tensor lives in a preallocated workspace buffer updated with in-place
ufuncs.  Bodies marked ``@hot_path`` (or listed in the config's
``hot_functions``) are checked for the fresh-array idioms that silently
reintroduce per-step heap churn:

* numpy array **constructors** (``np.zeros``, ``np.empty``,
  ``np.arange``, ``np.concatenate``, ...) — always a fresh array;
* **out=-capable** numpy calls (``np.multiply``, ``np.matmul``,
  ``np.exp``, ``np.cumsum``, ...) without an ``out=`` argument;
* ``.astype(...)`` without ``copy=False`` and no-argument ``.copy()``;
* **whole-buffer binary-op temporaries**: arithmetic on an *unindexed*
  private buffer attribute (``self._fields * x``) — row slices and
  scalar element reads (``self._fields[i]``) stay exempt, matching the
  documented O(row nnz) flip cost.

``np.asarray`` / ``np.ascontiguousarray`` are deliberately allowed (the
no-copy-on-match adoption idiom), as are reductions returning scalars or
index arrays (``np.argmin``, ``np.any``, ``np.isfinite``).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import FileContext, dotted_name
from repro.analysis.findings import Finding
from repro.analysis.registry import RULES, Rule

#: Always-allocating numpy constructors.
_CONSTRUCTORS = frozenset(
    {
        "zeros", "ones", "empty", "full",
        "zeros_like", "ones_like", "empty_like", "full_like",
        "array", "copy", "arange", "linspace", "logspace",
        "eye", "identity", "diag", "concatenate", "stack",
        "vstack", "hstack", "dstack", "column_stack", "tile",
        "repeat", "outer", "meshgrid", "fromiter", "frombuffer",
        "indices", "atleast_1d", "atleast_2d",
    }
)

#: numpy callables accepting ``out=``; calling them without it in a hot
#: body allocates a result array per call.
_OUT_CAPABLE = frozenset(
    {
        "add", "subtract", "multiply", "divide", "true_divide",
        "floor_divide", "mod", "remainder", "power", "float_power",
        "matmul", "dot", "exp", "expm1", "log", "log1p", "log2",
        "log10", "sin", "cos", "tan", "arcsin", "arccos", "arctan",
        "sinh", "cosh", "tanh", "sqrt", "cbrt", "square", "absolute",
        "abs", "fabs", "conj", "conjugate", "negative", "positive",
        "reciprocal", "sign", "rint", "floor", "ceil", "trunc",
        "cumsum", "cumprod", "clip", "take", "less", "less_equal",
        "greater", "greater_equal", "equal", "not_equal",
        "logical_not", "logical_and", "logical_or", "logical_xor",
        "minimum", "maximum", "fmin", "fmax", "hypot", "heaviside",
    }
)

_NUMPY_ROOTS = frozenset({"np", "numpy"})

_ARITH_OPS = (
    ast.Add, ast.Sub, ast.Mult, ast.Div,
    ast.FloorDiv, ast.Pow, ast.MatMult,
)


def _numpy_call_name(node: ast.Call) -> str | None:
    """``"zeros"`` for ``np.zeros(...)``-style calls, else ``None``."""
    name = dotted_name(node.func)
    if name is None:
        return None
    parts = name.split(".")
    if len(parts) == 2 and parts[0] in _NUMPY_ROOTS:
        return parts[1]
    return None


def _has_keyword(node: ast.Call, keyword: str) -> bool:
    return any(kw.arg == keyword for kw in node.keywords)


def _keyword_is_false(node: ast.Call, keyword: str) -> bool:
    for kw in node.keywords:
        if kw.arg == keyword:
            return (
                isinstance(kw.value, ast.Constant) and kw.value.value is False
            )
    return False


@RULES.register("REP002")
class HotPathAllocation(Rule):
    """Flag fresh-array idioms inside declared hot paths."""

    summary = (
        "declared hot paths (@hot_path / configured) must not allocate: "
        "no np constructors, out=-less ufuncs, astype/copy or "
        "whole-buffer binop temporaries"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for func in ctx.hot_functions():
            yield from self._check_body(ctx, func)

    def _check_body(
        self, ctx: FileContext, func: ast.AST
    ) -> Iterator[Finding]:
        reported: set[tuple[int, int, str]] = set()
        for node in ast.walk(func):
            for found in self._check_node(ctx, node):
                key = (found.line, found.col, found.message)
                if key not in reported:
                    reported.add(key)
                    yield found

    def _check_node(
        self, ctx: FileContext, node: ast.AST
    ) -> Iterator[Finding]:
        if isinstance(node, ast.Call):
            yield from self._check_call(ctx, node)
        elif isinstance(node, ast.BinOp) and isinstance(
            node.op, _ARITH_OPS
        ):
            yield from self._check_binop(ctx, node)

    def _check_call(
        self, ctx: FileContext, node: ast.Call
    ) -> Iterator[Finding]:
        np_name = _numpy_call_name(node)
        if np_name in _CONSTRUCTORS:
            yield self.finding(
                ctx,
                node,
                f"np.{np_name}() allocates a fresh array in a hot path; "
                f"preallocate the buffer at construction time",
            )
        elif np_name in _OUT_CAPABLE and not _has_keyword(node, "out"):
            yield self.finding(
                ctx,
                node,
                f"np.{np_name}() without out= allocates its result in a "
                f"hot path; write into a workspace buffer",
            )
        elif isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            if attr == "astype" and not _keyword_is_false(node, "copy"):
                yield self.finding(
                    ctx,
                    node,
                    ".astype() copies in a hot path; hoist the cast out "
                    "of the loop or pass copy=False for the no-op case",
                )
            elif attr == "copy" and not node.args and not node.keywords:
                yield self.finding(
                    ctx,
                    node,
                    ".copy() allocates in a hot path; reuse a "
                    "preallocated buffer",
                )

    def _check_binop(
        self, ctx: FileContext, node: ast.BinOp
    ) -> Iterator[Finding]:
        for attr in ast.walk(node):
            if not (
                isinstance(attr, ast.Attribute)
                and isinstance(attr.value, ast.Name)
                and attr.value.id == "self"
                and attr.attr.startswith("_")
            ):
                continue
            parent = ctx.parent(attr)
            if isinstance(parent, ast.Subscript) and parent.value is attr:
                continue  # indexed read: row slice / element, by design
            if isinstance(parent, ast.Attribute):
                continue  # deeper attribute chain, not a buffer read
            if isinstance(parent, ast.Call) and parent.func is attr:
                continue  # method call, checked as a call
            yield self.finding(
                ctx,
                attr,
                f"arithmetic on unindexed buffer attribute "
                f"'self.{attr.attr}' creates a whole-array temporary in "
                f"a hot path; use an in-place ufunc with out=",
            )
