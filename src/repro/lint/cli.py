"""Command-line entry point.

::

    python -m repro.lint src benchmarks
    repro-lint --format=json src
    repro-lint --select REP001,REP002 --isolated tests/lint/fixtures
    repro-lint --analysis src benchmarks examples   # + whole-program REP1xx
    repro-lint --analysis --format=sarif src > lint.sarif

Exit status: **0** clean, **1** findings, **2** errors (unreadable or
syntactically-invalid files, bad arguments).

The whole-program analysis (REP100–REP105, REP200–REP205, REP300–REP306)
runs when ``--analysis`` is given, when ``analysis = true`` is set in
``[tool.repro-lint]``, or when one of its codes is explicitly selected;
``--no-analysis`` always wins.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Set, Tuple

from .analysis import (
    ANALYSIS_RULES,
    analysis_codes,
    build_arch_report,
    build_ownership_report,
    run_analysis,
)
from .config import LintConfig, config_for_paths, load_config
from .findings import Finding, LintError
from .report import (
    render_arch_json,
    render_arch_text,
    render_json,
    render_ownership_json,
    render_ownership_text,
    render_sarif,
    render_text,
)
from .rules import RULES, all_codes
from .walker import lint_file

__all__ = ["main", "build_parser", "lint_paths", "arch_report_paths",
           "ownership_report_paths", "LintResult"]


class LintResult:
    """Aggregate outcome of one lint run."""

    def __init__(
        self,
        findings: List[Finding],
        errors: List[LintError],
        files_checked: int,
        warnings: Optional[List[str]] = None,
    ) -> None:
        self.findings = findings
        self.errors = errors
        self.files_checked = files_checked
        self.warnings = warnings if warnings is not None else []

    @property
    def exit_code(self) -> int:
        if self.errors:
            return 2
        return 1 if self.findings else 0


def _collect_files(
    paths: Sequence[Path], config: LintConfig
) -> Tuple[List[Path], List[str]]:
    files: List[Path] = []
    warnings: List[str] = []
    seen: Set[Path] = set()
    for path in paths:
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        elif path.suffix != ".py":
            warnings.append(f"{path}: skipped (not a Python file)")
            continue
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            if config.is_excluded(config.rel_path(candidate)):
                continue
            files.append(candidate)
    return files, warnings


def lint_paths(
    paths: Sequence[Path],
    config: Optional[LintConfig] = None,
    *,
    isolated: bool = False,
    select: Sequence[str] = (),
    ignore: Sequence[str] = (),
    analysis: Optional[bool] = None,
) -> LintResult:
    """Programmatic front door: lint ``paths`` and aggregate the results.

    ``isolated`` skips pyproject discovery (fixtures and tests use this);
    ``select``/``ignore`` are applied on top of whatever the config enables.
    ``analysis`` forces the whole-program REP1xx pass on (True) or off
    (False); ``None`` defers to the config and to whether a REP1xx code was
    selected.
    """
    paths = [Path(p) for p in paths]
    if config is None:
        config = LintConfig() if isolated else config_for_paths(paths)

    whole_program = set(analysis_codes())  # REP1xx, REP2xx, REP3xx
    if analysis is None:
        analysis = config.analysis or bool(whole_program & set(select))

    # A missing path is an error, but it must not hide findings from the
    # paths that do exist: lint those and aggregate both.
    errors: List[LintError] = [
        LintError(path=str(p), message="no such file or directory")
        for p in paths
        if not p.exists()
    ]
    paths = [p for p in paths if p.exists()]

    codes = all_codes() + analysis_codes()
    findings: List[Finding] = []
    files, warnings = _collect_files(paths, config)

    def enabled_for(rel: str) -> Set[str]:
        enabled = config.enabled_codes(rel, codes)
        if select:
            enabled &= set(select)
        enabled -= set(ignore)
        return enabled

    for path in files:
        rel = config.rel_path(path)
        file_findings, error = lint_file(path, rel, enabled_for(rel))
        findings.extend(file_findings)
        if error is not None:
            errors.append(error)
    if analysis:
        pairs = [(path, config.rel_path(path)) for path in files]
        findings.extend(run_analysis(pairs, enabled_for, config))
    findings.sort()
    errors.sort()
    return LintResult(findings, errors, len(files), warnings)


def arch_report_paths(
    paths: Sequence[Path],
    config: Optional[LintConfig] = None,
    *,
    isolated: bool = False,
) -> dict:
    """Programmatic ``--arch-report``: the resolved layer graph and
    per-module effect summary for ``paths``, as plain (JSON-able) data."""
    paths = [Path(p) for p in paths]
    if config is None:
        config = LintConfig() if isolated else config_for_paths(paths)
    files, _warnings = _collect_files([p for p in paths if p.exists()], config)
    pairs = [(path, config.rel_path(path)) for path in files]
    return build_arch_report(pairs, config)


def ownership_report_paths(
    paths: Sequence[Path],
    config: Optional[LintConfig] = None,
    *,
    isolated: bool = False,
) -> dict:
    """Programmatic ``--ownership-report``: the node-ownership graph,
    cross-node boundary edges and shared services for ``paths``, as
    plain (JSON-able) data."""
    paths = [Path(p) for p in paths]
    if config is None:
        config = LintConfig() if isolated else config_for_paths(paths)
    files, _warnings = _collect_files([p for p in paths if p.exists()], config)
    pairs = [(path, config.rel_path(path)) for path in files]
    return build_ownership_report(pairs, config)


def _parse_codes(raw: Optional[str]) -> Tuple[str, ...]:
    if not raw:
        return ()
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based determinism & protocol-invariant linter for the "
            "epidemic pub-sub reproduction (per-file rules REP001-REP006; "
            "whole-program rules REP100-REP105, architecture rules "
            "REP200-REP205, and concurrency-safety rules REP300-REP306 "
            "via --analysis)"
        ),
    )
    parser.add_argument("paths", nargs="*", help="files or directories to lint")
    parser.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--rules",
        metavar="CODES",
        help="alias for --select (merged with it)",
    )
    analysis_group = parser.add_mutually_exclusive_group()
    analysis_group.add_argument(
        "--analysis",
        action="store_true",
        help="run the whole-program REP100-REP105 analysis too",
    )
    analysis_group.add_argument(
        "--no-analysis",
        action="store_true",
        help="never run the whole-program analysis (overrides config)",
    )
    parser.add_argument(
        "--ignore",
        metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--config",
        metavar="PYPROJECT",
        help="explicit pyproject.toml to read [tool.repro-lint] from",
    )
    parser.add_argument(
        "--isolated",
        action="store_true",
        help="ignore any pyproject.toml configuration",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule code with its summary and exit",
    )
    parser.add_argument(
        "--arch-report",
        action="store_true",
        help=(
            "emit the resolved layer graph and per-module effect summary "
            "instead of linting (honors --format text/json)"
        ),
    )
    parser.add_argument(
        "--ownership-report",
        action="store_true",
        help=(
            "emit the node-ownership graph, cross-node boundary edges, and "
            "shared services instead of linting (honors --format text/json)"
        ),
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in (*RULES, *ANALYSIS_RULES):
            print(f"{rule.code}  {rule.name}: {rule.summary}")
        return 0

    if not args.paths:
        parser.error("no paths given (try: repro-lint src benchmarks)")

    if args.arch_report or args.ownership_report:
        config = None
        builder = (
            arch_report_paths if args.arch_report else ownership_report_paths
        )
        try:
            if args.config:
                config_path = Path(args.config)
                if not config_path.is_file():
                    print(
                        f"error: config file not found: {config_path}",
                        file=sys.stderr,
                    )
                    return 2
                config = load_config(config_path)
            report = builder(
                [Path(p) for p in args.paths], config, isolated=args.isolated
            )
        except RuntimeError as exc:  # no TOML parser on this interpreter
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.arch_report:
            render_as_json, render_as_text = render_arch_json, render_arch_text
        else:
            render_as_json = render_ownership_json
            render_as_text = render_ownership_text
        if args.format == "json":
            print(render_as_json(report))
        else:  # text (sarif has no report schema; text reads best)
            print(render_as_text(report))
        return 0

    select = _parse_codes(args.select) + _parse_codes(args.rules)
    ignore = _parse_codes(args.ignore)
    known = all_codes() + analysis_codes()
    unknown = [c for c in (*select, *ignore) if c not in known]
    if unknown:
        parser.error(
            f"unknown rule code(s): {', '.join(unknown)} "
            f"(known: {', '.join(known)})"
        )
    analysis: Optional[bool] = None
    if args.no_analysis:
        analysis = False
    elif args.analysis:
        analysis = True

    config: Optional[LintConfig] = None
    try:
        if args.config:
            config_path = Path(args.config)
            if not config_path.is_file():
                print(
                    f"error: config file not found: {config_path}", file=sys.stderr
                )
                return 2
            config = load_config(config_path)

        result = lint_paths(
            [Path(p) for p in args.paths],
            config,
            isolated=args.isolated,
            select=select,
            ignore=ignore,
            analysis=analysis,
        )
    except RuntimeError as exc:  # no TOML parser on this interpreter
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)

    if args.format == "json":
        print(render_json(result.findings, result.errors, result.files_checked))
    elif args.format == "sarif":
        print(render_sarif(result.findings, result.errors, result.files_checked))
    else:
        print(render_text(result.findings, result.errors, result.files_checked))
    return result.exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
