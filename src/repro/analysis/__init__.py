"""Project-invariant static analysis (``repro lint``).

The repository's load-bearing guarantees — the flip-delta-only sweep
loops of PR 3, the zero-allocation engine hot paths of PR 4, the
registry/config discipline of PR 2 and the array wire format plus
lock-guarded session state of PRs 5–6 — used to be enforced only by
convention and by runtime tests that cannot see a regression until a
benchmark drifts.  This package enforces them *statically*, at review
time, the way a race detector or sanitizer guards a training stack:

* a self-contained AST rule engine (:mod:`repro.analysis.engine`) with
  per-finding ``file:line:col RULE message`` output in text and JSON,
* a decorator-registered rule table (:data:`repro.analysis.RULES`,
  mirroring the ``repro.api`` registry idiom),
* ``# repro: noqa [RULE,...]`` line suppressions,
* the project rules REP001–REP006 (:mod:`repro.analysis.rules`), each
  protecting one architectural contract established by an earlier PR.

Entry points: ``repro lint [paths]`` on the CLI,
``scripts/check_invariants.py`` for pre-commit/CI use, and
:func:`lint_paths` from Python.  The engine is stdlib-only (``ast`` +
``tokenize``), so the gate runs anywhere the library imports.

Examples
--------
>>> from repro.analysis import RULES, lint_source
>>> sorted(RULES.available())[:2]
['REP001', 'REP002']
>>> findings = lint_source("import pickle\\n", path="wire.py")
>>> [f.rule for f in findings]
['REP005']
"""

from repro.analysis.config import LintConfig, load_config
from repro.analysis.engine import LintEngine, lint_paths, lint_source
from repro.analysis.findings import Finding
from repro.analysis.markers import hot_path
from repro.analysis.registry import RULES, LintRuleError, Rule

__all__ = [
    "Finding",
    "LintConfig",
    "LintEngine",
    "LintRuleError",
    "RULES",
    "Rule",
    "hot_path",
    "lint_paths",
    "lint_source",
    "load_config",
]
