"""Fixture-driven tests of the REP100–REP105 whole-program rules.

Each ``repNNN_bad.py`` fixture seeds exactly the regression its rule
protects against — a memo mutation that skips ``_invalidate()``, a
post-send ``Message`` mutation, an unpicklable executor submission — and
must produce *only* that rule's code; each ``repNNN_good.py`` encodes the
boundary shapes (alias mutation + invalidate, rebinding a fresh envelope,
varargs callbacks) that must stay clean.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.lint import lint_paths

FIXTURES = pathlib.Path(__file__).parents[1] / "fixtures" / "analysis"

BAD_EXPECTATIONS = [
    ("rep100_bad.py", "REP100", 1),
    ("rep101_bad.py", "REP101", 1),
    ("rep102_bad.py", "REP102", 1),
    ("rep103_bad.py", "REP103", 2),  # random.Random + numpy.random
    ("rep104_bad.py", "REP104", 2),  # lambda + nested def
    ("rep104_partial_bad.py", "REP104", 3),  # partial of each of those
    ("rep104_map_report_bad.py", "REP104", 2),  # pool + get_executor
    ("rep105_bad.py", "REP105", 2),  # missing super().__init__ + bad hook
]


@pytest.mark.parametrize("filename,code,count", BAD_EXPECTATIONS)
def test_bad_fixture_fires_exactly_its_rule(filename, code, count):
    result = lint_paths(
        [FIXTURES / filename], isolated=True, analysis=True
    )
    assert result.errors == []
    codes = [finding.code for finding in result.findings]
    assert codes == [code] * count, "\n".join(
        finding.render() for finding in result.findings
    )


@pytest.mark.parametrize(
    "filename",
    [
        "rep100_good.py",
        "rep101_good.py",
        "rep102_good.py",
        "rep103_good.py",
        "rep104_good.py",
        "rep104_partial_good.py",
        "rep105_good.py",
    ],
)
def test_good_fixture_is_clean(filename):
    result = lint_paths(
        [FIXTURES / filename], isolated=True, analysis=True
    )
    assert result.errors == []
    assert result.findings == [], "\n".join(
        finding.render() for finding in result.findings
    )


def test_whole_fixture_directory_counts():
    """One project build over all fixtures keeps the per-file attribution."""
    result = lint_paths([FIXTURES], isolated=True, analysis=True)
    by_code: dict = {}
    for finding in result.findings:
        by_code[finding.code] = by_code.get(finding.code, 0) + 1
    assert by_code == {
        "REP100": 1,
        "REP101": 1,
        "REP102": 1,
        "REP103": 2,
        "REP104": 7,
        "REP105": 2,
    }


def test_analysis_findings_honor_inline_suppression(tmp_path):
    source = (FIXTURES / "rep103_bad.py").read_text(encoding="utf-8")
    patched = source.replace(
        "return random.Random(seed)",
        "return random.Random(seed)  # repro-lint: disable=REP103",
    ).replace(
        "return np.random.default_rng(seed)",
        "return np.random.default_rng(seed)  # repro-lint: disable=REP103",
    )
    target = tmp_path / "suppressed_rng.py"
    target.write_text(patched, encoding="utf-8")
    result = lint_paths([target], isolated=True, analysis=True)
    assert result.findings == []


def test_analysis_off_by_default_when_isolated():
    result = lint_paths([FIXTURES / "rep100_bad.py"], isolated=True)
    assert result.findings == []


def test_selecting_rep1xx_code_enables_analysis():
    result = lint_paths(
        [FIXTURES / "rep103_bad.py"], isolated=True, select=["REP103"]
    )
    assert [finding.code for finding in result.findings] == ["REP103", "REP103"]


def test_analysis_false_wins_over_selection():
    result = lint_paths(
        [FIXTURES / "rep103_bad.py"],
        isolated=True,
        select=["REP103"],
        analysis=False,
    )
    assert result.findings == []
