"""The concurrency-safety rule family, REP300–REP306.

Where REP200–REP205 police the *declared architecture*, these rules
police the property serial determinism rests on: per-node state is
node-owned, and everything crossing a node boundary passes the
Network/engine seams.  They consume the
:class:`~.ownership.OwnershipModel` built over the same project model
and effect fixpoint as the REP200 series:

========  ==============================================================
REP300    node-owned object aliased into another node's state without
          passing a Network/engine touchpoint
REP301    mutation of an object reachable from ≥2 node instances that
          is not a declared shared service (hidden cross-node coupling)
REP302    ordering decision derived from ``id()``/``hash()`` in code
          with ``sim-schedule`` effects (breaks the (time, seq) merge)
REP303    boundary-send payload whose object graph closes over the
          engine or a per-node instance (payload is not a value)
REP304    wall-clock/blocking call reachable from protocol-layer code
          (would stall a cooperative asyncio backend)
REP305    set iteration order escaping into send/schedule through a
          call chain (the interprocedural REP205)
REP306    non-atomic write (bare ``open(..., "w")``/``json.dump`` with
          no rename in scope) in a declared durable module
========  ==============================================================

All seven share one :class:`ConcurrencyContext` wrapping the
:class:`~.arch_rules.ArchContext` — the ownership model is built once
per analysis run.  With no declared layer map the per-node closure is
still computed (loop-seeded), so REP300/REP301/REP302/REP303/REP305
work standalone; REP304 needs ``confined`` layers and is inert without
them, exactly like REP201, and REP306 needs the
``[tool.repro-lint.durable]`` module registry.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set

from ..config import LintConfig
from .arch_rules import ArchContext, OrderedEmissionRule
from .effects import BLOCKING, NET_SEND, SIM_SCHEDULE, WALL_CLOCK, resolve_call_target
from .model import ClassInfo, FunctionInfo, ModuleInfo, Project, dotted_parts
from .ownership import (
    BOUNDARY_ATTRS,
    BOUNDARY_SEND_ATTRS,
    OwnershipModel,
    SharedCapture,
    _map_call_args,
    _positional_params,
)
from .rules import AddFn, AnalysisRule

__all__ = [
    "ConcurrencyContext",
    "ConcurrencyRule",
    "CONCURRENCY_RULES",
    "concurrency_codes",
]


class ConcurrencyContext:
    """Everything the REP300-series shares: one build per analysis run."""

    def __init__(self, arch: ArchContext) -> None:
        self.arch = arch
        self.project: Project = arch.project
        self.config: LintConfig = arch.config
        self.effects = arch.effects
        self.per_node = arch.per_node
        self.model = OwnershipModel(
            arch.project,
            arch.per_node,
            arch.layer_map.layer_of_module,
            arch.config.layers.confined,
        )
        #: loop-invariant ctor args captured by per-node classes.
        self.captures: List[SharedCapture] = self.model.shared_captures(
            arch.effects.all_constructions()
        )

    # ------------------------------------------------------------------
    def is_touchpoint(self, function: FunctionInfo) -> bool:
        return self.arch.is_touchpoint(function)

    def is_confined(self, module_name: str) -> bool:
        return self.arch.layer_map.is_confined(module_name)

    def unconfined_layer(self, cls: ClassInfo) -> Optional[str]:
        """The *unconfined* mapped layer ``cls`` lives in, if any — the
        engine/transport substrate every node legitimately references."""
        layer = self.arch.layer_map.layer_of_module(cls.module.name)
        if layer is not None and layer not in self.config.layers.confined:
            return layer
        return None

    def declared_shared(self, capture: SharedCapture) -> bool:
        """The capture's object is a declared shared service."""
        names: List[str] = []
        if capture.arg_class is not None:
            names.append(capture.arg_class.qualname)
            names.append(capture.arg_class.name)
        for cls_qualname, attr in sorted(capture.attr_homes):
            names.append(f"{cls_qualname}.{attr}")
            names.append(f"{cls_qualname.rsplit('.', 1)[-1]}.{attr}")
        return self.config.ownership.is_declared(*names)


class ConcurrencyRule(AnalysisRule):
    """Base class for rules consuming the shared :class:`ConcurrencyContext`."""

    def run(self, project: Project, add: AddFn) -> None:  # pragma: no cover
        raise RuntimeError(
            f"{self.code} needs a ConcurrencyContext; use run_concurrency()"
        )

    def run_concurrency(self, ctx: ConcurrencyContext, add: AddFn) -> None:
        raise NotImplementedError

    # -- shared helpers -------------------------------------------------
    @staticmethod
    def _per_node_methods(
        ctx: ConcurrencyContext,
    ) -> Iterable[FunctionInfo]:
        for qualname in sorted(ctx.per_node):
            cls = ctx.project.classes.get(qualname)
            if cls is None:
                continue
            for name in sorted(cls.methods):
                yield cls.methods[name]

    @staticmethod
    def _receiver_class(
        ctx: ConcurrencyContext, function: FunctionInfo, recv: ast.expr
    ) -> Optional[ClassInfo]:
        """The per-node class a receiver expression denotes, if any."""
        cls = ctx.model._arg_class(function, recv)
        if cls is not None and cls.qualname in ctx.per_node:
            return cls
        return None

    @staticmethod
    def _self_attr_expr(expr: ast.expr) -> Optional[str]:
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
        ):
            return expr.attr
        return None


class NodeAliasRule(ConcurrencyRule):
    """REP300: node state crosses nodes only through declared seams."""

    code = "REP300"
    name = "cross-node-alias"
    summary = (
        "node-owned object aliased into another node's state without "
        "passing a Network/engine touchpoint; every cross-node edge "
        "must be a serializable seam so nodes never share live state"
    )

    def run_concurrency(self, ctx: ConcurrencyContext, add: AddFn) -> None:
        for method in self._per_node_methods(ctx):
            # Construction-time wiring (attach_recovery et al.) and
            # declared touchpoints are the sanctioned alias points.
            if method.name == "__init__" or ctx.is_touchpoint(method):
                continue
            for node in ast.walk(method.node):
                if isinstance(node, ast.Call):
                    self._check_call(ctx, method, node, add)
                elif isinstance(node, ast.Assign):
                    self._check_store(ctx, method, node, add)

    def _check_call(
        self,
        ctx: ConcurrencyContext,
        method: FunctionInfo,
        node: ast.Call,
        add: AddFn,
    ) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr in BOUNDARY_ATTRS:
            return  # the declared seam
        recv = func.value
        if self._self_attr_expr(recv) is not None or not isinstance(
            recv, ast.Name
        ):
            return  # own collaborators are same-node wiring
        peer = self._receiver_class(ctx, method, recv)
        if peer is None:
            return
        callee = peer.mro_method(func.attr)
        if callee is None or ctx.is_touchpoint(callee):
            return
        summaries = ctx.model.param_summary(callee.qualname)
        if not summaries:
            return
        positional = _positional_params(callee)
        for param, arg in _map_call_args(node, positional):
            attr = self._self_attr_expr(arg)
            if attr is None:
                continue  # copies (set(self.x)) and locals are fine
            summary = summaries.get(param)
            if summary is None or not summary.stored:
                continue
            add(
                method.module,
                node,
                self.code,
                f"{method.qualname} hands self.{attr} to "
                f"{peer.name}.{func.attr}(), which stores it on the other "
                "node; a live alias couples two nodes' state outside "
                "the message order — send a copy through the "
                "network/engine seam instead",
            )

    def _check_store(
        self,
        ctx: ConcurrencyContext,
        method: FunctionInfo,
        node: ast.Assign,
        add: AddFn,
    ) -> None:
        attr = self._self_attr_expr(node.value)
        if attr is None:
            return
        for target in node.targets:
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id != "self"
            ):
                continue
            peer = self._receiver_class(ctx, method, target.value)
            if peer is None:
                continue
            add(
                method.module,
                node,
                self.code,
                f"{method.qualname} stores self.{attr} directly into "
                f"{peer.name}.{target.attr}; node state must cross nodes "
                "through the network/engine seam, not by aliasing",
            )


class SharedMutationRule(ConcurrencyRule):
    """REP301: nothing mutable is silently shared across node instances."""

    code = "REP301"
    name = "shared-service-mutation"
    summary = (
        "one mutable object is captured by every instance of a per-node "
        "class and mutated through it, without being declared a shared "
        "service; that mutation couples every node through hidden "
        "state the event order does not account for"
    )

    def run_concurrency(self, ctx: ConcurrencyContext, add: AddFn) -> None:
        seen: Set[tuple] = set()
        for capture in ctx.captures:
            if not capture.mutated:
                continue  # read-only sharing partitions trivially
            if capture.arg_class is not None and ctx.unconfined_layer(
                capture.arg_class
            ):
                continue  # the engine/transport substrate is the seam
            if ctx.declared_shared(capture):
                continue
            construction = capture.construction
            key = (
                construction.function.module.rel,
                getattr(construction.node, "lineno", 0),
                capture.param,
            )
            if key in seen:
                continue
            seen.add(key)
            homes = ", ".join(
                f"{qualname.rsplit('.', 1)[-1]}.{attr}"
                for qualname, attr in sorted(capture.attr_homes)
            )
            what = (
                capture.arg_class.name
                if capture.arg_class is not None
                else f"argument '{capture.param}'"
            )
            add(
                construction.function.module,
                construction.node,
                self.code,
                f"{construction.function.qualname} constructs "
                f"{construction.cls.name} in a loop and hands one {what} "
                f"to every instance (captured at {homes}), which mutates "
                "it; replicate the object per node or declare it under "
                "[tool.repro-lint.ownership] shared-services",
            )


class IdentityOrderRule(ConcurrencyRule):
    """REP302: no identity-derived ordering near the scheduler."""

    code = "REP302"
    name = "identity-ordering"
    summary = (
        "ordering decision derived from id()/hash() in code with "
        "sim-schedule effects; memory addresses and hash seeds differ "
        "across processes, so a re-run cannot reproduce the "
        "(time, seq) order — use stable protocol identifiers"
    )

    _ORDER_CALLS = frozenset({"sorted", "min", "max"})
    _IDENTITY = frozenset({"id", "hash"})

    def run_concurrency(self, ctx: ConcurrencyContext, add: AddFn) -> None:
        for qualname in sorted(ctx.effects.functions):
            record = ctx.effects.functions[qualname]
            if SIM_SCHEDULE not in record.effects:
                continue
            function = record.function
            for node in ast.walk(function.node):
                if isinstance(node, ast.Call):
                    self._check_call(function.module, function, node, add)
                elif isinstance(node, ast.Compare):
                    self._check_compare(function.module, function, node, add)

    def _identity_expr(self, expr: ast.expr) -> Optional[str]:
        """'id'/'hash' when ``expr`` is such a call (or a lambda making
        one), else ``None``."""
        if isinstance(expr, ast.Name) and expr.id in self._IDENTITY:
            return expr.id
        if isinstance(expr, ast.Lambda):
            for sub in ast.walk(expr.body):
                name = self._call_name(sub)
                if name is not None:
                    return name
            return None
        return self._call_name(expr)

    def _call_name(self, node: ast.AST) -> Optional[str]:
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in self._IDENTITY
            and node.args
            and not isinstance(node.args[0], ast.Constant)
        ):
            return node.func.id
        return None

    def _check_call(
        self,
        module: ModuleInfo,
        function: FunctionInfo,
        node: ast.Call,
        add: AddFn,
    ) -> None:
        func = node.func
        is_order = (
            isinstance(func, ast.Name) and func.id in self._ORDER_CALLS
        ) or (isinstance(func, ast.Attribute) and func.attr == "sort")
        if not is_order:
            return
        for kw in node.keywords:
            if kw.arg != "key":
                continue
            name = self._identity_expr(kw.value)
            if name is not None:
                add(
                    module,
                    node,
                    self.code,
                    f"{function.qualname} orders by {name}() while holding "
                    "sim-schedule effects; identity differs across "
                    "processes — key on node_id/EventId/sequence numbers",
                )

    def _check_compare(
        self,
        module: ModuleInfo,
        function: FunctionInfo,
        node: ast.Compare,
        add: AddFn,
    ) -> None:
        if not any(
            isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
            for op in node.ops
        ):
            return
        for operand in (node.left, *node.comparators):
            name = self._call_name(operand)
            if name is not None:
                add(
                    module,
                    node,
                    self.code,
                    f"{function.qualname} compares {name}() results while "
                    "holding sim-schedule effects; identity-derived order "
                    "is not reproducible across processes — compare "
                    "stable protocol identifiers",
                )
                return  # one finding per comparison, not per operand


class PayloadClosureRule(ConcurrencyRule):
    """REP303: boundary payload graphs stay serializable."""

    code = "REP303"
    name = "payload-closure"
    summary = (
        "object handed to a boundary send has an attribute bound to the "
        "engine/transport substrate or a per-node instance; a message "
        "payload must be a serializable value, and a live engine or node "
        "reference smuggles shared state across the boundary (extends "
        "REP104 from callables to payloads)"
    )

    def run_concurrency(self, ctx: ConcurrencyContext, add: AddFn) -> None:
        for method in self._per_node_methods(ctx):
            for node in ast.walk(method.node):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in BOUNDARY_SEND_ATTRS
                ):
                    continue
                for arg in node.args:
                    payload = self._payload_class(ctx, method, arg)
                    if payload is None:
                        continue
                    offender = self._closure_over(ctx, payload)
                    if offender is None:
                        continue
                    attr, bound, why = offender
                    add(
                        method.module,
                        node,
                        self.code,
                        f"{method.qualname} sends a {payload.name} whose "
                        f"attribute '{attr}' is bound to {bound.name} "
                        f"({why}); the payload graph must be a "
                        "serializable value — carry ids, not live "
                        "references",
                    )

    @staticmethod
    def _payload_class(
        ctx: ConcurrencyContext, method: FunctionInfo, arg: ast.expr
    ) -> Optional[ClassInfo]:
        if isinstance(arg, ast.Call):
            resolved = resolve_call_target(
                ctx.project, method.module, method.cls, arg
            )
            if isinstance(resolved, ClassInfo):
                return resolved
            return None
        return ctx.model._arg_class(method, arg)

    def _closure_over(self, ctx: ConcurrencyContext, payload: ClassInfo):
        bindings = ctx.model.attr_bindings.get(payload.qualname, {})
        for attr in sorted(bindings):
            binding = bindings[attr]
            if binding.startswith("<"):
                continue
            bound = ctx.project.classes.get(binding)
            if bound is None:
                continue
            if self._value_like(ctx, bound):
                continue  # enums/frozen/immutable value objects pickle fine
            layer = ctx.unconfined_layer(bound)
            if layer is not None:
                top = (
                    ctx.config.layers.order[-1]
                    if ctx.config.layers.order
                    else None
                )
                if layer != top:
                    return attr, bound, f"the {layer} substrate"
            if binding in ctx.per_node:
                return attr, bound, "a per-node instance"
        return None

    @staticmethod
    def _value_like(ctx: ConcurrencyContext, bound: ClassInfo) -> bool:
        """Enums, frozen dataclasses, and classes that never mutate their
        own state are serializable value objects, not live references."""
        from .arch_rules import _SLOTS_EXEMPT_BASES
        from .ownership import _is_frozen_dataclass

        for name in bound.ancestry_names():
            if name.split(".")[-1].endswith(_SLOTS_EXEMPT_BASES):
                return True
        if _is_frozen_dataclass(bound):
            return True
        return not ctx.model.self_mutators.get(
            bound.qualname
        ) and not ctx.model.mutated_attrs.get(bound.qualname)


class BlockingReachabilityRule(ConcurrencyRule):
    """REP304: protocol code never reaches wall-clock or blocking I/O."""

    code = "REP304"
    name = "blocking-reachability"
    summary = (
        "wall-clock or blocking call (time.sleep, sync socket/file I/O) "
        "is reachable from protocol-layer code; a cooperative asyncio "
        "backend would stall the whole event loop on it — route timing "
        "through the engine and I/O through the transport"
    )

    _EFFECTS = frozenset({BLOCKING, WALL_CLOCK})

    def run_concurrency(self, ctx: ConcurrencyContext, add: AddFn) -> None:
        for qualname in sorted(ctx.effects.functions):
            record = ctx.effects.functions[qualname]
            function = record.function
            if not ctx.is_confined(function.module.name):
                continue
            hits = sorted(record.effects & self._EFFECTS)
            if not hits or ctx.is_touchpoint(function):
                continue
            direct = sorted(set(hits) & record.direct)
            if direct:
                effect = direct[0]
                site = record.sites.get(effect, function.node)
                how = f"makes a direct {effect} call"
            else:
                effect = hits[0]
                site = function.node
                how = (
                    f"reaches {', '.join(hits)} via "
                    f"{record.via.get(effect, 'a callee')}()"
                )
            add(
                function.module,
                site,
                self.code,
                f"{qualname} ({ctx.arch.layer_map.layer_of_module(function.module.name)} "
                f"layer) {how}; protocol code must stay non-blocking for "
                "the asyncio backend — use engine time and transport I/O",
            )


class ChainedEmissionRule(ConcurrencyRule):
    """REP305: set order must not reach the wire through a call chain."""

    code = "REP305"
    name = "chained-ordered-emission"
    summary = (
        "iteration over a set feeds a callee that sends or schedules; "
        "REP205 catches the local case, this catches the order escaping "
        "through a call chain — iterate sorted(...)"
    )

    _helper = OrderedEmissionRule()

    def run_concurrency(self, ctx: ConcurrencyContext, add: AddFn) -> None:
        class_sets = {}
        for module in ctx.project.modules.values():
            for function in self._module_functions(module):
                owner = function.cls
                if owner is not None and owner.qualname not in class_sets:
                    class_sets[owner.qualname] = self._helper._self_set_attrs(
                        owner
                    )
                self_sets = (
                    class_sets.get(owner.qualname, set()) if owner else set()
                )
                self._check_function(ctx, module, function, self_sets, add)

    @staticmethod
    def _module_functions(module: ModuleInfo) -> Iterable[FunctionInfo]:
        yield from module.functions.values()
        for cls in module.classes.values():
            yield from cls.methods.values()

    def _check_function(
        self,
        ctx: ConcurrencyContext,
        module: ModuleInfo,
        function: FunctionInfo,
        self_sets: Set[str],
        add: AddFn,
    ) -> None:
        local_sets = self._helper._local_sets(module, function.node)
        if not local_sets and not self_sets:
            return
        for node in ast.walk(function.node):
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            if not self._helper._is_set_expr(
                node.iter, local_sets, self_sets
            ):
                continue
            if self._helper._emits(module, node.body):
                continue  # the local case is REP205's finding
            emitter = self._emitting_callee(ctx, function, node.body)
            if emitter is None:
                continue
            callee, effect = emitter
            add(
                module,
                node,
                self.code,
                f"{function.qualname} iterates a set and calls "
                f"{callee}() inside the loop, which has {effect} effects; "
                "the emission order inherits the set's hash order — "
                "iterate sorted(...)",
            )

    @staticmethod
    def _emitting_callee(
        ctx: ConcurrencyContext,
        function: FunctionInfo,
        body: Iterable[ast.stmt],
    ):
        for stmt in body:
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                resolved = resolve_call_target(
                    ctx.project, function.module, function.cls, node
                )
                callee: Optional[FunctionInfo] = None
                if isinstance(resolved, FunctionInfo):
                    callee = resolved
                elif isinstance(resolved, ClassInfo):
                    callee = resolved.mro_method("__init__")
                if callee is None:
                    continue
                record = ctx.effects.of(callee.qualname)
                if record is None:
                    continue
                for effect in (NET_SEND, SIM_SCHEDULE):
                    if effect in record.effects:
                        return callee.qualname, effect
        return None


class NonAtomicWriteRule(ConcurrencyRule):
    """REP306: durable artifacts are written via write-then-rename.

    The registry of durable modules lives in ``[tool.repro-lint.durable]``
    (path or dotted-name fnmatch patterns); without it the rule is inert.
    A write call (``open`` in a ``w``/``a``/``x`` mode, ``.write_text``/
    ``.write_bytes``, ``json.dump``/``pickle.dump``) inside a durable
    module must share its scope — the enclosing function, or the module
    body for top-level code — with a rename (``os.replace``/``os.rename``/
    ``shutil.move`` or a one-argument ``.replace(...)``/``.rename(...)``):
    the write-to-temp-then-rename idiom that makes a ``kill -9`` mid-write
    leave either the old artifact or the new one, never a torn file.
    """

    code = "REP306"
    name = "non-atomic-write"
    summary = (
        "file written in a declared durable module with no rename in the "
        "same scope; a crash mid-write leaves a torn artifact — write to "
        "a temporary path and os.replace() it into place"
    )

    _OPEN_FUNCS = frozenset({"open", "io.open"})
    _WRITE_METHODS = frozenset({"write_text", "write_bytes"})
    _DUMP_FUNCS = frozenset({"json.dump", "pickle.dump", "marshal.dump"})
    _RENAME_FUNCS = frozenset({"os.replace", "os.rename", "shutil.move"})
    _RENAME_METHODS = frozenset({"replace", "rename"})
    _WRITE_MODES = "wax"

    def run_concurrency(self, ctx: ConcurrencyContext, add: AddFn) -> None:
        durable = ctx.config.durable
        if not durable.modules:
            return
        for name in sorted(ctx.project.modules):
            module = ctx.project.modules[name]
            if durable.is_durable(module.rel, module.name):
                self._scan_scope(module, list(module.tree.body), add)

    # -- scope analysis -------------------------------------------------
    def _scan_scope(
        self, module: ModuleInfo, body: List[ast.AST], add: AddFn
    ) -> None:
        """Check one scope's statements; recurse into nested functions.

        A function containing both the write and the rename (the atomic
        helper itself) is legal; a bare write whose rename lives in some
        *other* scope is exactly the torn-artifact hazard REP306 exists
        to flag, so scopes are judged independently.
        """
        writes: List[tuple] = []
        renamed = False
        stack = list(body)
        nested: List[ast.AST] = []
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                nested.append(node)
                continue
            if isinstance(node, ast.Call):
                what = self._write_kind(module, node)
                if what is not None:
                    writes.append((node, what))
                if self._is_rename(module, node):
                    renamed = True
            stack.extend(ast.iter_child_nodes(node))
        if not renamed:
            for call, what in writes:
                add(
                    module,
                    call,
                    self.code,
                    f"{module.name} is a declared durable module but {what} "
                    "has no os.replace/rename in its scope; a crash "
                    "mid-write leaves a torn artifact on disk — write the "
                    "full payload to a temporary path and atomically "
                    "rename it into place",
                )
        for fn in nested:
            fn_body = fn.body if isinstance(fn.body, list) else [fn.body]
            self._scan_scope(module, list(fn_body), add)

    # -- call classification --------------------------------------------
    @staticmethod
    def _resolve(module: ModuleInfo, node: ast.expr) -> Optional[str]:
        parts = dotted_parts(node)
        if not parts:
            return None
        head = module.imports.get(parts[0], parts[0])
        return ".".join([head, *parts[1:]])

    def _write_kind(
        self, module: ModuleInfo, node: ast.Call
    ) -> Optional[str]:
        func = node.func
        target = self._resolve(module, func)
        is_open_func = target in self._OPEN_FUNCS
        is_open_method = (
            not is_open_func
            and isinstance(func, ast.Attribute)
            and func.attr == "open"
        )
        if is_open_func or is_open_method:
            # builtin open(path, mode); Path.open(mode) has no path arg.
            mode = self._literal_mode(node, 0 if is_open_method else 1)
            if mode is not None and mode[:1] in self._WRITE_MODES:
                return f'open(..., "{mode}")'
            return None
        if isinstance(func, ast.Attribute) and func.attr in self._WRITE_METHODS:
            return f".{func.attr}(...)"
        if target in self._DUMP_FUNCS:
            return f"{target}(...)"
        return None

    @staticmethod
    def _literal_mode(node: ast.Call, index: int) -> Optional[str]:
        mode: Optional[ast.expr] = (
            node.args[index] if len(node.args) > index else None
        )
        for keyword in node.keywords:
            if keyword.arg == "mode":
                mode = keyword.value
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
            return mode.value
        return None

    def _is_rename(self, module: ModuleInfo, node: ast.Call) -> bool:
        if self._resolve(module, node.func) in self._RENAME_FUNCS:
            return True
        func = node.func
        # Path.replace(target)/Path.rename(target) take exactly one
        # argument; str.replace(old, new) takes two, so it never counts.
        return (
            isinstance(func, ast.Attribute)
            and func.attr in self._RENAME_METHODS
            and len(node.args) == 1
            and not node.keywords
        )


CONCURRENCY_RULES: List[ConcurrencyRule] = [
    NodeAliasRule(),
    SharedMutationRule(),
    IdentityOrderRule(),
    PayloadClosureRule(),
    BlockingReachabilityRule(),
    ChainedEmissionRule(),
    NonAtomicWriteRule(),
]


def concurrency_codes() -> List[str]:
    return [rule.code for rule in CONCURRENCY_RULES]
