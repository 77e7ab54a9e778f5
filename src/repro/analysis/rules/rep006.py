"""REP006 — repatch discipline in event loops (PR 8 contract).

The streaming pipeline re-materialises a live
:class:`repro.qubo.delta.FlipDeltaState` against each batch's model with
``state.repatch(model)`` — a full field mat-vec.
Calling ``repatch`` *inside* an event loop hides that mat-vec behind
every iteration, exactly the per-step recomputation REP001 bans for
``flip_delta``: per-event code must hoist the repatch into a per-batch
helper (as ``repro.api.stream`` does) so the cost is one visible
re-materialisation per event batch, not a silent inner-loop rebuild.

Only the delta engine itself (``LintConfig.rep006_exempt``, default
``qubo/delta.py``), which defines ``repatch``, is exempt.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import FileContext
from repro.analysis.findings import Finding
from repro.analysis.registry import RULES, Rule


@RULES.register("REP006")
class RepatchInLoop(Rule):
    """Flag flip-delta repatching inside event loops."""

    summary = (
        "event loops must hoist FlipDeltaState.repatch into a "
        "per-batch helper, never repatch per iteration"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.path_matches(ctx.config.rep006_exempt):
            return
        for loop in ast.walk(ctx.tree):
            if not isinstance(loop, (ast.For, ast.While)):
                continue
            for node in ast.walk(loop):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "repatch"
                ):
                    yield self.finding(
                        ctx,
                        node,
                        ".repatch() called inside a loop; hoist the "
                        "re-materialisation into a per-event-batch "
                        "helper (see repro.api.stream) so each batch "
                        "pays one visible mat-vec",
                    )
