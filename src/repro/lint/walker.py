"""AST traversal: parse one file, resolve imports, dispatch nodes to rules.

:class:`FileContext` pre-scans every ``import``/``from ... import`` in the
file (including function-local ones) and offers ``resolve_call``: given a
``Call`` node it returns a canonical dotted name such as ``random.choice``,
``datetime.datetime.now`` or ``id`` — undoing aliases like
``import random as rnd`` or ``from time import perf_counter as clock``.

The dispatcher walks the tree exactly once and fans each node out to the
rule hooks, collecting findings for the codes enabled on this file.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .findings import Finding, LintError
from .rules import RULES, Rule
from .suppress import parse_suppressions

__all__ = ["FileContext", "lint_file"]


class FileContext:
    """Per-file state shared by every rule: paths and import aliases."""

    def __init__(self, rel_path: str, tree: ast.AST) -> None:
        self.rel_path = rel_path
        #: alias -> module, e.g. {"rnd": "random", "time": "time"}
        self.module_aliases: Dict[str, str] = {}
        #: local name -> "module.original", e.g. {"clock": "time.perf_counter"}
        self.from_imports: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.module_aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    self.from_imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )

    def resolve_name(self, name: str) -> str:
        if name in self.from_imports:
            return self.from_imports[name]
        if name in self.module_aliases:
            return self.module_aliases[name]
        return name

    def resolve_dotted(self, node: ast.expr) -> Optional[str]:
        """``a.b.c`` -> canonical dotted string, or None for anything else."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(self.resolve_name(node.id))
        return ".".join(reversed(parts))

    def resolve_call(self, call: ast.Call) -> Optional[str]:
        return self.resolve_dotted(call.func)


class _Dispatcher(ast.NodeVisitor):
    """Single-pass visitor fanning nodes out to every enabled rule."""

    def __init__(self, ctx: FileContext, rules: Iterable[Rule]) -> None:
        self.ctx = ctx
        self.rules = list(rules)
        #: (code, line, col, end_line, message)
        self.raw: List[Tuple[str, int, int, int, str]] = []

    def _add(self, code: str, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 0)
        self.raw.append(
            (
                code,
                line,
                getattr(node, "col_offset", 0),
                getattr(node, "end_lineno", None) or line,
                message,
            )
        )

    def visit_Call(self, node: ast.Call) -> None:
        for rule in self.rules:
            rule.check_call(self.ctx, node, self._add)
        self.generic_visit(node)

    def _visit_loop(self, node) -> None:
        for rule in self.rules:
            rule.check_iter(self.ctx, node, node.iter, self._add)
        self.generic_visit(node)

    visit_For = _visit_loop
    visit_AsyncFor = _visit_loop

    def _visit_comprehension(self, node) -> None:
        for generator in node.generators:
            for rule in self.rules:
                rule.check_iter(self.ctx, node, generator.iter, self._add)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    def _visit_function(self, node) -> None:
        for rule in self.rules:
            rule.check_function(self.ctx, node, self._add)
        self.generic_visit(node)

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function
    visit_Lambda = _visit_function


def lint_file(
    path: Path,
    rel_path: str,
    enabled_codes: Set[str],
) -> Tuple[List[Finding], Optional[LintError]]:
    """Lint one file; returns (findings, error).

    ``enabled_codes`` restricts which rules run; suppression comments are
    applied afterwards so a suppressed finding never escapes this function.
    """
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return [], LintError(path=rel_path, message=str(exc))
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [], LintError(
            path=rel_path, message=f"syntax error on line {exc.lineno}: {exc.msg}"
        )

    ctx = FileContext(rel_path, tree)
    rules = [rule for rule in RULES if rule.code in enabled_codes]
    dispatcher = _Dispatcher(ctx, rules)
    dispatcher.visit(tree)

    # A suppression comment on any line the violating node spans counts, so
    # the directive also works on the closing paren of a multi-line call;
    # passing the tree lets a directive on a `def` line cover its decorators.
    suppressions = parse_suppressions(source, tree)
    findings = [
        Finding(path=rel_path, line=line, col=col, code=code, message=message)
        for code, line, col, end_line, message in dispatcher.raw
        if not suppressions.is_suppressed_span(code, line, end_line)
    ]
    findings.sort()
    return findings, None
