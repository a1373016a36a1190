"""Orchestration: run the whole-program rules over a set of files.

:func:`run_analysis` takes the same ``(path, rel_path)`` pairs the per-file
walker lints, builds one :class:`~repro.lint.analysis.model.Project` over all
of them, runs every enabled REP1xx/REP2xx rule, and filters the raw findings
through the same per-path configuration and inline-suppression machinery as
the per-file rules — a ``# repro-lint: disable=REP101`` comment works
identically for both families.

:func:`build_arch_report` reuses the same project model and
:class:`~repro.lint.analysis.arch_rules.ArchContext` to emit the resolved
layer graph and per-module effect summary behind ``repro-lint
--arch-report``; :func:`build_ownership_report` does the same for the
ownership model behind ``--ownership-report`` — the node-ownership
graph, the touchpoints each cross-node edge uses, and the candidate
partition-cut seams.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..config import LintConfig
from ..findings import Finding
from ..suppress import SuppressionMap, parse_suppressions
from .arch_rules import ARCH_RULES, ArchContext, arch_codes
from .concurrency_rules import CONCURRENCY_RULES, ConcurrencyContext
from .model import ModuleInfo, Project, build_project
from .rules import ANALYSIS_RULES as CORE_ANALYSIS_RULES

__all__ = [
    "run_analysis",
    "build_arch_report",
    "build_ownership_report",
    "ALL_ANALYSIS_RULES",
]

#: All three whole-program families, in catalogue order.
ALL_ANALYSIS_RULES = [*CORE_ANALYSIS_RULES, *ARCH_RULES, *CONCURRENCY_RULES]

#: rel-path → enabled rule codes for that file (the CLI passes a closure
#: over the loaded LintConfig).
EnabledFn = Callable[[str], Set[str]]


def run_analysis(
    files: Sequence[Tuple[Path, str]],
    enabled_for: EnabledFn,
    config: Optional[LintConfig] = None,
) -> List[Finding]:
    """Run REP100–REP105, REP200–REP205, and REP300–REP306 over
    ``files`` and return suppression-filtered findings sorted in the
    standard order."""
    if config is None:
        config = LintConfig()
    project = build_project(files)
    raw: List[Tuple[ModuleInfo, ast.AST, str, str]] = []

    def add(module: ModuleInfo, node: ast.AST, code: str, message: str) -> None:
        raw.append((module, node, code, message))

    wanted = {rule.code for rule in ALL_ANALYSIS_RULES}
    for rule in CORE_ANALYSIS_RULES:
        rule.run(project, add)
    context = ArchContext(project, config)
    for arch_rule in ARCH_RULES:
        arch_rule.run_arch(context, add)
    concurrency = ConcurrencyContext(context)
    for conc_rule in CONCURRENCY_RULES:
        conc_rule.run_concurrency(concurrency, add)

    suppression_cache: Dict[str, SuppressionMap] = {}
    findings: List[Finding] = []
    for module, node, code, message in raw:
        if code not in wanted or code not in enabled_for(module.rel):
            continue
        suppressions = suppression_cache.get(module.rel)
        if suppressions is None:
            suppressions = parse_suppressions(module.source, module.tree)
            suppression_cache[module.rel] = suppressions
        line = getattr(node, "lineno", 0)
        end_line = getattr(node, "end_lineno", None) or line
        if suppressions.is_suppressed_span(code, line, end_line):
            continue
        findings.append(
            Finding(
                path=module.rel,
                line=line,
                col=getattr(node, "col_offset", 0),
                code=code,
                message=message,
            )
        )
    findings.sort()
    return findings


# ----------------------------------------------------------------------
# Architecture report (repro-lint --arch-report)
# ----------------------------------------------------------------------


def build_arch_report(
    files: Sequence[Tuple[Path, str]], config: Optional[LintConfig] = None
) -> Dict[str, Any]:
    """The resolved layer graph + per-module effect summary, as plain data.

    Everything is sorted so the output is byte-stable for a given tree —
    the golden-output test and the CI artifact rely on that.
    """
    if config is None:
        config = LintConfig()
    project = build_project(files)
    context = ArchContext(project, config)
    layer_map = context.layer_map

    violations = [
        {
            "source": edge.source.name,
            "source_layer": edge.source_layer,
            "target": edge.target,
            "target_layer": edge.target_layer,
            "line": getattr(edge.node, "lineno", 0),
        }
        for edge in layer_map.violations()
    ]
    violations.sort(key=lambda v: (v["source"], v["line"]))

    edges = [
        {"from": source, "to": target, "imports": count}
        for (source, target), count in sorted(
            layer_map.edge_counts().items()
        )
    ]

    touchpoints_used: Set[str] = set()
    for record in context.effects.functions.values():
        if record.direct & {"sim-time", "sim-schedule", "sim-engine"}:
            function = record.function
            if context.layer_map.is_confined(function.module.name):
                if context.is_touchpoint(function):
                    touchpoints_used.add(function.qualname)

    effects_by_module = {
        name: context.effects.module_summary(name)
        for name in sorted(project.modules)
    }
    effects_by_module = {
        name: summary for name, summary in effects_by_module.items() if summary
    }

    per_node = [
        {
            "class": qualname,
            "reason": context.per_node[qualname],
            "slots": _has_slots(context, qualname),
        }
        for qualname in sorted(context.per_node)
        if qualname in context.project.classes
        and context.below_top(
            context.project.classes[qualname].module.name
        )
    ]

    return {
        "layers": {
            "order": list(config.layers.order),
            "confined": list(config.layers.confined),
            "modules": layer_map.modules_by_layer(),
        },
        "imports": {"edges": edges, "violations": violations},
        "touchpoints": {
            "declared": sorted(config.layers.engine_touchpoints),
            "used": sorted(touchpoints_used),
        },
        "effects": effects_by_module,
        "per_node_classes": per_node,
        "files_analyzed": len(project.modules),
    }


def _has_slots(context: ArchContext, qualname: str) -> bool:
    from .arch_rules import SlotsRule

    cls = context.project.classes.get(qualname)
    if cls is None:
        return False
    return SlotsRule()._slotless_ancestor(cls) is None


# ----------------------------------------------------------------------
# Ownership report (repro-lint --ownership-report)
# ----------------------------------------------------------------------


def build_ownership_report(
    files: Sequence[Tuple[Path, str]], config: Optional[LintConfig] = None
) -> Dict[str, Any]:
    """The node-ownership graph + partition-cut seams, as plain data.

    Per per-node class: every instance attribute with its inferred owner
    (node-local / engine / shared / shared-immutable / link-payload).
    ``cross_node_edges`` lists each boundary-attr call site — the places
    a partition cut must turn into serialized sends.  ``shared_services``
    lists each loop-invariant object captured by every node instance,
    whether it is mutated, and whether the config declares it.  Like the
    arch report, everything is sorted so output is byte-stable.
    """
    import ast as _ast

    from ..config import LintConfig as _LintConfig
    from .ownership import BOUNDARY_SEND_ATTRS

    if config is None:
        config = _LintConfig()
    project = build_project(files)
    context = ArchContext(project, config)
    concurrency = ConcurrencyContext(context)
    model = concurrency.model

    # Split captures: the engine/transport substrate every node holds is
    # a declared runtime seam, not an accidental shared object.
    shared_attrs = set()
    engine_attrs = set()
    for capture in concurrency.captures:
        if capture.arg_class is not None and concurrency.unconfined_layer(
            capture.arg_class
        ):
            engine_attrs |= capture.attr_homes
        else:
            shared_attrs |= capture.attr_homes
    payload_attrs = model.payload_attrs()

    per_node = []
    for qualname in sorted(context.per_node):
        cls = project.classes.get(qualname)
        if cls is None:
            continue
        if config.layers.order and not context.below_top(cls.module.name):
            continue
        attrs = dict(model.attr_bindings.get(qualname, {}))
        names = set(attrs)
        names.update(a for c, a in shared_attrs if c == qualname)
        names.update(a for c, a in payload_attrs if c == qualname)
        for method in cls.methods.values():
            for node in _ast.walk(method.node):
                if isinstance(node, _ast.Assign):
                    targets = node.targets
                elif isinstance(node, _ast.AnnAssign):
                    targets = [node.target]
                else:
                    continue
                for target in targets:
                    if (
                        isinstance(target, _ast.Attribute)
                        and isinstance(target.value, _ast.Name)
                        and target.value.id == "self"
                    ):
                        names.add(target.attr)
        per_node.append(
            {
                "class": qualname,
                "reason": context.per_node[qualname],
                "owners": {
                    attr: (
                        "engine"
                        if (qualname, attr) in engine_attrs
                        else model.owner_of(
                            cls, attr, shared_attrs, payload_attrs
                        )
                    )
                    for attr in sorted(names)
                },
            }
        )

    cross_node_edges = [
        {
            "function": call.function.qualname,
            "touchpoint": call.attr,
            "kind": "send" if call.attr in BOUNDARY_SEND_ATTRS else "schedule",
            "line": getattr(call.node, "lineno", 0),
        }
        for call in model.boundary_calls()
    ]
    cross_node_edges.sort(
        key=lambda e: (e["function"], e["line"], e["touchpoint"])
    )

    shared_services = [
        {
            "constructed": capture.construction.cls.qualname,
            "at": capture.construction.function.qualname,
            "line": getattr(capture.construction.node, "lineno", 0),
            "object": (
                capture.arg_class.qualname
                if capture.arg_class is not None
                else f"<param {capture.param}>"
            ),
            "captured_at": [
                f"{qualname}.{attr}"
                for qualname, attr in sorted(capture.attr_homes)
            ],
            "mutated": capture.mutated,
            "declared": concurrency.declared_shared(capture),
            "substrate": bool(
                capture.arg_class is not None
                and concurrency.unconfined_layer(capture.arg_class)
            ),
        }
        for capture in concurrency.captures
    ]

    seams = {
        "declared_touchpoints": sorted(config.layers.engine_touchpoints),
        "boundary_attrs_used": sorted(
            {edge["touchpoint"] for edge in cross_node_edges}
        ),
        "shared_services": sorted(
            {
                service["object"]
                for service in shared_services
                if service["declared"]
            }
        ),
        "undeclared_shared_mutable": sorted(
            {
                service["object"]
                for service in shared_services
                if service["mutated"]
                and not service["declared"]
                and not service["substrate"]
            }
        ),
    }

    return {
        "per_node_classes": per_node,
        "cross_node_edges": cross_node_edges,
        "shared_services": shared_services,
        "partition_seams": seams,
        "files_analyzed": len(project.modules),
    }
