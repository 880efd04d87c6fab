"""Golden-file tests: every rule's bad fixture yields exactly the
expected (code, line) findings; every good fixture is clean."""

from pathlib import Path

import pytest

from repro.lint import (LintConfig, lint_paths, load_span_taxonomy,
                        select_rules)

FIXTURES = Path(__file__).parent / "fixtures"

#: The span taxonomy comes from the repo's docs/OBSERVABILITY.md table.
CONFIG = LintConfig(span_taxonomy=load_span_taxonomy(FIXTURES))

#: code -> expected 1-based lines in the matching ``<code>_bad.py``.
EXPECTED = {
    "RL001": [7, 9, 10, 11],
    "RL002": [14, 19],
    "RL003": [9, 10, 11, 12, 13, 14],
    "RL004": [9, 10],
    "RL010": [4, 8, 13],
    "RL011": [5, 9, 13],
    "RL020": [7, 14],
    "RL021": [4, 9, 14],
    "RL022": [7, 8],
}


def _lint_fixture(name: str, code: str):
    path = FIXTURES / name
    assert path.exists(), f"missing fixture {name}"
    rules = select_rules(select=[code])
    return lint_paths([path], rules=rules, config=CONFIG)


@pytest.mark.parametrize("code", sorted(EXPECTED))
class TestGoldenPairs:
    def test_bad_fixture_lines(self, code):
        report = _lint_fixture(f"{code.lower()}_bad.py", code)
        got = [(f.code, f.line) for f in report.findings]
        assert got == [(code, line) for line in EXPECTED[code]]

    def test_good_fixture_clean(self, code):
        report = _lint_fixture(f"{code.lower()}_good.py", code)
        assert report.findings == []

    def test_bad_fixture_fails_under_full_rule_set(self, code):
        report = lint_paths([FIXTURES / f"{code.lower()}_bad.py"],
                            config=CONFIG)
        assert {f.code for f in report.findings} >= {code}


class TestPr3BugClass:
    """Acceptance: the original cache-key defect is caught and the
    message routes the reader to the canonicalizer."""

    def test_json_dumps_set_cache_key_is_flagged(self):
        report = _lint_fixture("rl002_bad.py", "RL002")
        cache_key_finding = next(
            f for f in report.findings if f.line == 14)
        assert "canonical_json" in cache_key_finding.message
        assert "PYTHONHASHSEED" in cache_key_finding.message

    def test_direct_set_payload_is_flagged(self):
        report = _lint_fixture("rl002_bad.py", "RL002")
        assert any(f.line == 19 for f in report.findings)

    def test_cache_split_fixture_is_flagged(self):
        """The preserved cache-split shape (a set dumped with
        ``default=list`` into a cache key) is caught by the per-file
        rule; CI gates on this exact line."""
        report = _lint_fixture("pr3_cache_split.py", "RL002")
        assert [(f.code, f.line) for f in report.findings] \
            == [("RL002", 20)]


class TestMetaheuristicPattern:
    """Acceptance: an unseeded metaheuristic search loop — the bug class
    the PR-7 solver backends must never reintroduce — trips RL003, and
    the seeded variant is clean."""

    def test_unseeded_search_loop_is_flagged(self):
        report = _lint_fixture("metaheuristic_bad.py", "RL003")
        lines = [f.line for f in report.findings]
        assert lines == [16, 20]

    def test_seeded_search_loop_is_clean(self):
        report = _lint_fixture("metaheuristic_good.py", "RL003")
        assert report.findings == []


class TestRuleMetadata:
    def test_every_expected_code_is_registered(self):
        from repro.lint import all_rules

        codes = {cls.code for cls in all_rules()}
        assert codes >= set(EXPECTED)

    def test_catalog_has_categories_and_descriptions(self):
        from repro.lint import rule_catalog

        for code, name, category, description in rule_catalog():
            assert code.startswith("RL")
            assert name and description
            assert category in ("determinism", "physics", "hygiene")

    def test_duplicate_code_rejected(self):
        from repro.lint import RuleVisitor, register

        class Dupe(RuleVisitor):
            code = "RL001"
            name = "dupe"

        with pytest.raises(ValueError, match="duplicate"):
            register(Dupe)

    def test_malformed_code_rejected(self):
        from repro.lint import RuleVisitor, register

        class Bad(RuleVisitor):
            code = "X1"
            name = "bad"

        with pytest.raises(ValueError, match="RL0xx"):
            register(Bad)
