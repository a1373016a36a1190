"""Every rule code is demonstrated by one bad and one good fixture."""

from __future__ import annotations

import pathlib

import pytest

from repro.lint import all_codes, lint_paths

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

ALL_CODES = ["REP001", "REP002", "REP003", "REP004", "REP005", "REP006"]


def codes_in(filename: str) -> set:
    result = lint_paths([FIXTURES / filename], isolated=True)
    assert not result.errors, result.errors
    return {finding.code for finding in result.findings}


def test_rule_registry_matches_documented_codes():
    assert all_codes() == ALL_CODES


@pytest.mark.parametrize("code", ALL_CODES)
def test_bad_fixture_triggers_its_rule(code):
    assert code in codes_in(f"{code.lower()}_bad.py")


@pytest.mark.parametrize("code", ALL_CODES)
def test_good_fixture_is_clean(code):
    assert codes_in(f"{code.lower()}_good.py") == set()


@pytest.mark.parametrize("code", ALL_CODES)
def test_bad_fixture_triggers_only_its_rule(code):
    """Each bad fixture is a focused demonstration, not a grab bag."""
    assert codes_in(f"{code.lower()}_bad.py") == {code}


class TestRep001Details:
    def test_aliased_and_from_imports_detected(self):
        result = lint_paths([FIXTURES / "rep001_bad.py"], isolated=True)
        lines = {f.line for f in result.findings}
        # random.random(), rnd.sample(), pick(), SystemRandom()
        assert len(result.findings) == 4, result.findings
        assert len(lines) == 4

    def test_seeded_random_instance_allowed(self):
        assert codes_in("rep001_good.py") == set()


class TestRep005Details:
    def test_negative_delay_positional_and_keyword(self):
        result = lint_paths([FIXTURES / "rep005_bad.py"], isolated=True)
        messages = [f.message for f in result.findings]
        assert sum("negative delay" in m for m in messages) == 3
        assert any("time.sleep" in m for m in messages)
        assert any("threading.Timer" in m for m in messages)
        assert any("call_later" in m for m in messages)
        assert any("asyncio.sleep" in m for m in messages)


class TestSuppression:
    def test_suppressed_fixture_is_clean(self):
        result = lint_paths([FIXTURES / "suppressed.py"], isolated=True)
        assert result.findings == []

    def test_select_overrides_do_not_resurrect_suppressions(self):
        result = lint_paths(
            [FIXTURES / "suppressed.py"], isolated=True, select=["REP002"]
        )
        assert result.findings == []

    def test_directive_on_closing_paren_of_multiline_call(self, tmp_path):
        """The comment may sit on any line the violating node spans."""
        target = tmp_path / "multiline.py"
        target.write_text(
            "import random\n"
            "\n"
            "x = random.choice(\n"
            "    [1, 2, 3],\n"
            ")  # repro-lint: disable=REP001\n"
        )
        result = lint_paths([target], isolated=True)
        assert result.findings == []

    def test_directive_inside_span_does_not_leak_to_later_lines(self, tmp_path):
        target = tmp_path / "leak.py"
        target.write_text(
            "import random\n"
            "\n"
            "x = random.choice([1])  # repro-lint: disable=REP001\n"
            "y = random.choice([2])\n"
        )
        result = lint_paths([target], isolated=True)
        assert [f.line for f in result.findings] == [4]
