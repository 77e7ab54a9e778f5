"""Fixture-driven tests for every REP rule.

Each rule ships a triggering (``<rule>_bad``) and a clean
(``<rule>_good``) fixture under ``fixtures/``; the meta-test asserts the
pairing exists and behaves for *every* registered rule, so adding a rule
without fixtures fails the suite.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import LintConfig, LintEngine, RULES

FIXTURES = Path(__file__).parent / "fixtures"

#: Exemption-free config: fixture paths live under ``tests/`` which the
#: shipped defaults exempt for REP003, so tests zero the path lists out.
STRICT = LintConfig(
    rep001_exempt=(),
    rep003_allowed=(),
    rep005_allow_pickle=(),
    rep006_exempt=(),
)


def fixture_path(rule_id: str, kind: str) -> Path:
    stem = f"{rule_id.lower()}_{kind}"
    file = FIXTURES / f"{stem}.py"
    return file if file.exists() else FIXTURES / stem


def lint_fixture(rule_id: str, kind: str):
    engine = LintEngine(rules=[rule_id], config=STRICT)
    return engine.lint_paths([fixture_path(rule_id, kind)])


class TestMeta:
    """Every registered rule carries a working fixture pair."""

    @pytest.mark.parametrize("rule_id", RULES.available())
    def test_bad_fixture_exists_and_triggers(self, rule_id):
        path = fixture_path(rule_id, "bad")
        assert path.exists(), f"no triggering fixture for {rule_id}"
        findings = lint_fixture(rule_id, "bad")
        assert findings, f"{rule_id} bad fixture produced no findings"
        assert all(f.rule == rule_id for f in findings)

    @pytest.mark.parametrize("rule_id", RULES.available())
    def test_good_fixture_exists_and_is_clean(self, rule_id):
        path = fixture_path(rule_id, "good")
        assert path.exists(), f"no clean fixture for {rule_id}"
        assert lint_fixture(rule_id, "good") == []

    @pytest.mark.parametrize("rule_id", RULES.available())
    def test_rule_metadata(self, rule_id):
        rule = RULES.create(rule_id)
        assert rule.rule_id == rule_id
        assert rule.summary


class TestRep001:
    def test_flags_both_loop_kinds(self):
        findings = lint_fixture("REP001", "bad")
        messages = [f.message for f in findings]
        assert len(findings) == 2
        assert any(".flip_delta()" in m for m in messages)
        assert any(".flip_deltas()" in m for m in messages)

    def test_exempt_paths_skip_the_rule(self):
        engine = LintEngine(rules=["REP001"], config=LintConfig())
        src = fixture_path("REP001", "bad").read_text(encoding="utf-8")
        # The delta engine's own module is the mechanism — exempt.
        assert engine.lint_source(src, path="repro/qubo/delta.py") == []
        assert engine.lint_source(src, path="repro/solvers/tabu.py")


class TestRep002:
    def test_flags_each_allocation_idiom(self):
        findings = lint_fixture("REP002", "bad")
        text = "\n".join(f.message for f in findings)
        assert len(findings) == 5
        assert "np.zeros()" in text
        assert "np.multiply() without out=" in text
        assert ".astype()" in text
        assert ".copy()" in text
        assert "'self._phase'" in text

    def test_config_listed_functions_are_hot(self):
        src = (
            "import numpy as np\n"
            "class E:\n"
            "    def step(self):\n"
            "        return np.zeros(4)\n"
        )
        clean = LintEngine(rules=["REP002"], config=STRICT)
        assert clean.lint_source(src) == []
        hot = LintEngine(
            rules=["REP002"],
            config=LintConfig(hot_functions=("E.step",)),
        )
        assert len(hot.lint_source(src)) == 1


class TestRep003:
    def test_flags_construction_and_name_table(self):
        findings = lint_fixture("REP003", "bad")
        assert len(findings) == 2
        assert all(f.path.endswith("consumer.py") for f in findings)
        text = "\n".join(f.message for f in findings)
        assert "FixtureAnnealer()" in text
        assert "name->class table" in text

    def test_registration_site_may_construct(self):
        findings = lint_fixture("REP003", "bad")
        assert not any(f.path.endswith("plugins.py") for f in findings)

    def test_default_config_exempts_tests(self):
        engine = LintEngine(rules=["REP003"], config=LintConfig())
        assert engine.lint_paths([fixture_path("REP003", "bad")]) == [], (
            "tests/ paths are exempt under the shipped defaults"
        )


class TestRep004:
    def test_flags_each_nondeterminism_source(self):
        findings = lint_fixture("REP004", "bad")
        text = "\n".join(f.message for f in findings)
        assert len(findings) == 5
        assert "np.random.seed()" in text
        assert "np.random.normal()" in text
        assert "random.random()" in text
        assert "time.time()" in text
        assert "stdlib random" in text

    def test_perf_counter_is_allowed(self):
        findings = lint_fixture("REP004", "good")
        assert findings == []


class TestRep005:
    def test_flags_pickle_and_unguarded_writes(self):
        findings = lint_fixture("REP005", "bad")
        text = "\n".join(f.message for f in findings)
        assert len(findings) == 3
        assert "'pickle'" in text
        assert "'self._hits'" in text
        assert "'self._idle'" in text

    def test_guarded_writes_pass(self):
        assert lint_fixture("REP005", "good") == []

    def test_init_is_exempt(self):
        src = fixture_path("REP005", "good").read_text(encoding="utf-8")
        engine = LintEngine(rules=["REP005"], config=STRICT)
        # __init__ writes _hits/_idle without the lock — allowed.
        assert engine.lint_source(src) == []

    def test_tuple_unpacking_writes_are_checked(self):
        engine = LintEngine(rules=["REP005"], config=STRICT)
        src = (
            "class Session:\n"
            "    _locked_fields = ('_pool',)\n"
            "    def close(self):\n"
            "        pool, self._pool = self._pool, None\n"
            "    def close_guarded(self):\n"
            "        with self._lock:\n"
            "            pool, self._pool = self._pool, None\n"
        )
        findings = engine.lint_source(src)
        assert len(findings) == 1
        assert "'self._pool'" in findings[0].message
        assert findings[0].line == 4


class TestRep006:
    def test_flags_both_loop_kinds(self):
        findings = lint_fixture("REP006", "bad")
        messages = [f.message for f in findings]
        assert len(findings) == 2
        assert all(".repatch()" in m for m in messages)

    def test_exempt_paths_skip_the_rule(self):
        engine = LintEngine(rules=["REP006"], config=LintConfig())
        src = fixture_path("REP006", "bad").read_text(encoding="utf-8")
        # The delta engine's own cadence logic is the mechanism — exempt.
        assert engine.lint_source(src, path="repro/qubo/delta.py") == []
        assert engine.lint_source(src, path="repro/api/stream.py")
