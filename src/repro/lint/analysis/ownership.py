"""Interprocedural ownership / escape analysis over per-node classes.

Serial determinism rests on one property the effect pass alone cannot
show: *every object a node mutates is owned by that node*, and
everything crossing a node boundary goes through the Network/engine
seams.  This module assigns each
instance attribute of a per-node class an **owner** and tracks how
objects escape through calls, container stores, and constructions:

==================  ====================================================
``node-local``      constructed per instance, reachable from one node
``engine``          a runtime-substrate reference (engine or transport
                    layer object: the simulator, the network, a link)
``shared``          one mutable object aliased into *many* node
                    instances (an interner, a registry, a shared cache)
``shared-immutable``constants, tuples, frozen dataclass configs
``link-payload``    allocated locally but handed to a boundary send —
                    the object graph a partition cut would serialize
==================  ====================================================

Three interprocedural summaries power the classification and the
REP300-series rules in :mod:`.concurrency_rules`:

* **Param capture** — for every function, which parameters escape into
  long-lived state (``self.X = p``, container stores, or transitively:
  ``ReceivedLog(registry)`` whose ``__init__`` stores ``registry``).
* **Attr bindings** — for every class, the (annotation- or
  construction-derived) class each instance attribute is bound to.
* **Object mutation** — for every class, which instance attributes it
  mutates *as objects* (``self.a.append``, ``self.a[k] = v``, a call to
  a bound-class method that mutates its own state) — plain attribute
  rebinding does not count.

On top of these, :func:`shared_captures` finds construction sites of
per-node classes whose arguments are loop-invariant (one object handed
to every instance), and :func:`build_ownership_report` emits the
node-ownership graph, the touchpoints every cross-node edge uses, and
the candidate partition-cut seams: where node state crosses node
boundaries, and through which touchpoints (``repro-lint
--ownership-report``).

Everything is syntactic and deliberately conservative-but-shallow,
like the rest of the analysis package.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .dataflow import MUTATING_METHODS, build_alias_map, mutation_nodes
from .effects import Construction, resolve_call_target
from .model import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    Project,
    dotted_parts,
)

__all__ = [
    "OWNER_NODE_LOCAL",
    "OWNER_ENGINE",
    "OWNER_SHARED",
    "OWNER_IMMUTABLE",
    "OWNER_LINK_PAYLOAD",
    "BOUNDARY_SEND_ATTRS",
    "BOUNDARY_SCHEDULE_ATTRS",
    "BOUNDARY_ATTRS",
    "ParamSummary",
    "SharedCapture",
    "BoundaryCall",
    "OwnershipModel",
]

OWNER_NODE_LOCAL = "node-local"
OWNER_ENGINE = "engine"
OWNER_SHARED = "shared"
OWNER_IMMUTABLE = "shared-immutable"
OWNER_LINK_PAYLOAD = "link-payload"

#: Attribute calls that hand an object to the transport (cross-node
#: edges; the superset of the REP101/REP205 send set with the
#: out-of-band dispatcher boundary methods included).
BOUNDARY_SEND_ATTRS = frozenset(
    {"send", "send_oob", "transmit", "send_gossip",
     "send_oob_request", "send_oob_event"}
)
#: Attribute calls that hand an object to the simulation calendar.
BOUNDARY_SCHEDULE_ATTRS = frozenset(
    {"schedule", "schedule_at", "schedule_call", "schedule_call_at"}
)
BOUNDARY_ATTRS = BOUNDARY_SEND_ATTRS | BOUNDARY_SCHEDULE_ATTRS

#: Containers (binding tags, not classes).
_CONTAINER = "<container>"
_IMMUTABLE = "<immutable>"

_MUTABLE_FACTORIES = frozenset(
    {"dict", "list", "set", "bytearray", "defaultdict", "deque", "Counter",
     "OrderedDict"}
)
_IMMUTABLE_FACTORIES = frozenset({"tuple", "frozenset", "int", "float", "str",
                                  "bool", "bytes"})
_TYPING_WRAPPERS = frozenset({"Optional", "Final", "ClassVar", "Annotated"})


class ParamSummary:
    """How one function treats one of its parameters."""

    __slots__ = ("stored", "mutated", "stored_at")

    def __init__(self) -> None:
        #: escapes into long-lived state (attribute/container store),
        #: directly or through a callee.
        self.stored = False
        #: the object is mutated through this parameter.
        self.mutated = False
        #: ``(class qualname, attr)`` homes the object ends up stored at.
        self.stored_at: Set[Tuple[str, str]] = set()


class SharedCapture:
    """One loop-invariant argument handed to every instance of a
    per-node class and captured into its state."""

    __slots__ = ("construction", "param", "attr_homes", "arg_class",
                 "arg_expr", "mutated")

    def __init__(
        self,
        construction: Construction,
        param: str,
        attr_homes: Set[Tuple[str, str]],
        arg_class: Optional[ClassInfo],
        arg_expr: ast.expr,
    ) -> None:
        self.construction = construction
        self.param = param
        self.attr_homes = attr_homes
        self.arg_class = arg_class
        self.arg_expr = arg_expr
        #: filled by the model: the shared object is mutated through one
        #: of its capture homes.
        self.mutated = False


class BoundaryCall:
    """One cross-node touchpoint use inside a per-node class method."""

    __slots__ = ("function", "attr", "node")

    def __init__(
        self, function: FunctionInfo, attr: str, node: ast.Call
    ) -> None:
        self.function = function
        self.attr = attr
        self.node = node


# ----------------------------------------------------------------------
# Small syntactic helpers
# ----------------------------------------------------------------------


def _annotation_parts(ann: ast.expr) -> Optional[List[str]]:
    """The dotted name an annotation refers to, unwrapping
    ``Optional[X]``/``Final[X]`` and string annotations."""
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        try:
            ann = ast.parse(ann.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(ann, ast.Subscript):
        head = dotted_parts(ann.value)
        if head and head[-1] in _TYPING_WRAPPERS:
            inner = ann.slice
            if isinstance(inner, ast.Tuple) and inner.elts:
                inner = inner.elts[0]
            return _annotation_parts(inner)
        return None
    return dotted_parts(ann)


def _param_names(function: FunctionInfo) -> List[str]:
    args = function.node.args
    names = [a.arg for a in (*args.posonlyargs, *args.args)]
    if names and function.cls is not None and names[0] in ("self", "cls"):
        names = names[1:]
    names.extend(a.arg for a in args.kwonlyargs)
    return names


def _positional_params(function: FunctionInfo) -> List[str]:
    args = function.node.args
    names = [a.arg for a in (*args.posonlyargs, *args.args)]
    if names and function.cls is not None and names[0] in ("self", "cls"):
        names = names[1:]
    return names


def _param_annotation(function: FunctionInfo, name: str) -> Optional[ast.expr]:
    args = function.node.args
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        if arg.arg == name:
            return arg.annotation
    return None


def _is_frozen_dataclass(cls: ClassInfo) -> bool:
    for decorator in cls.node.decorator_list:
        if isinstance(decorator, ast.Call):
            parts = dotted_parts(decorator.func)
            if parts and parts[-1] == "dataclass":
                for kw in decorator.keywords:
                    if (
                        kw.arg == "frozen"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True
                    ):
                        return True
    return False


def _loop_bound_names(function_node: ast.AST, target: ast.AST) -> Set[str]:
    """Names bound by loops/comprehensions *enclosing* ``target``."""
    bound: Set[str] = set()

    def visit(node: ast.AST, inherited: Set[str]) -> bool:
        if node is target:
            bound.update(inherited)
            return True
        here = inherited
        if isinstance(node, (ast.For, ast.AsyncFor)):
            names = {
                sub.id
                for sub in ast.walk(node.target)
                if isinstance(sub, ast.Name)
            }
            here = inherited | names
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            names = set()
            for comp in node.generators:
                names.update(
                    sub.id
                    for sub in ast.walk(comp.target)
                    if isinstance(sub, ast.Name)
                )
            here = inherited | names
        for child in ast.iter_child_nodes(node):
            if visit(child, here):
                return True
        return False

    visit(function_node, set())
    return bound


def _names_in(expr: ast.expr) -> Set[str]:
    return {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}


def _map_call_args(
    call: ast.Call, params: Sequence[str]
) -> Iterable[Tuple[str, ast.expr]]:
    """``(param name, argument expression)`` pairs for one call site."""
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            break
        if i < len(params):
            yield params[i], arg
    for kw in call.keywords:
        if kw.arg is not None:
            yield kw.arg, kw.value


# ----------------------------------------------------------------------
# The model
# ----------------------------------------------------------------------


class OwnershipModel:
    """Ownership facts over one project, computed from the arch context.

    Parameters are the pieces :class:`~.arch_rules.ArchContext` already
    holds; the model never rebuilds the effect fixpoint.
    """

    def __init__(
        self,
        project: Project,
        per_node: Dict[str, str],
        layer_of_module,
        confined_layers: Sequence[str],
    ) -> None:
        self.project = project
        self.per_node = per_node
        self._layer_of = layer_of_module
        self._confined = set(confined_layers)
        #: class qualname -> attr -> binding (class qualname or tag).
        self.attr_bindings: Dict[str, Dict[str, str]] = {}
        #: function qualname -> param name -> ParamSummary.
        self.param_summaries: Dict[str, Dict[str, ParamSummary]] = {}
        #: class qualname -> attrs mutated as objects.
        self.mutated_attrs: Dict[str, Set[str]] = {}
        #: class qualname -> methods that mutate their own instance.
        self.self_mutators: Dict[str, Set[str]] = {}
        self._build_bindings()
        self._build_mutators()
        self._build_param_summaries()
        self._close_mutated_attrs()

    # -- binding extraction --------------------------------------------
    def _functions(self) -> Iterable[FunctionInfo]:
        for module in self.project.modules.values():
            yield from module.functions.values()
            for cls in module.classes.values():
                yield from cls.methods.values()

    def _build_bindings(self) -> None:
        for cls in self.project.classes.values():
            bindings: Dict[str, str] = {}
            for method in cls.methods.values():
                for node in ast.walk(method.node):
                    targets: List[ast.expr] = []
                    value: Optional[ast.expr] = None
                    if isinstance(node, ast.Assign):
                        targets, value = list(node.targets), node.value
                    elif (
                        isinstance(node, ast.AnnAssign)
                        and node.value is not None
                    ):
                        targets, value = [node.target], node.value
                    if value is None:
                        continue
                    for target in targets:
                        if not (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            continue
                        binding = self._binding_of(method, value)
                        if binding is not None:
                            bindings.setdefault(target.attr, binding)
            self.attr_bindings[cls.qualname] = bindings

    def _binding_of(
        self, function: FunctionInfo, value: ast.expr
    ) -> Optional[str]:
        """Binding for one assigned value: class qualname or tag."""
        # Conditional expressions bind whichever arm resolves first.
        if isinstance(value, ast.IfExp):
            return (
                self._binding_of(function, value.body)
                or self._binding_of(function, value.orelse)
            )
        if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.ListComp,
                              ast.SetComp, ast.DictComp)):
            return _CONTAINER
        if isinstance(value, ast.Constant):
            return _IMMUTABLE
        if isinstance(value, ast.Tuple):
            return _IMMUTABLE
        if isinstance(value, ast.Call):
            parts = dotted_parts(value.func)
            if parts is not None:
                if parts[-1] in _MUTABLE_FACTORIES:
                    return _CONTAINER
                if parts[-1] in _IMMUTABLE_FACTORIES:
                    return _IMMUTABLE
            resolved = resolve_call_target(
                self.project, function.module, function.cls, value
            )
            if isinstance(resolved, ClassInfo):
                return resolved.qualname
            return None
        if isinstance(value, ast.Name):
            ann = _param_annotation(function, value.id)
            if ann is not None:
                return self._annotation_binding(function.module, ann)
        return None

    def _annotation_binding(
        self, module: ModuleInfo, ann: ast.expr
    ) -> Optional[str]:
        parts = _annotation_parts(ann)
        if parts is None:
            return None
        if parts[-1] in _MUTABLE_FACTORIES or parts[-1] in (
            "Dict", "List", "Set", "MutableMapping", "MutableSet", "Deque",
        ):
            return _CONTAINER
        if parts[-1] in _IMMUTABLE_FACTORIES or parts[-1] in (
            "Tuple", "FrozenSet",
        ):
            return _IMMUTABLE
        resolved = self.project.resolve_name(module, parts)
        if isinstance(resolved, ClassInfo):
            return resolved.qualname
        return None

    def binding_class(self, cls_qualname: str, attr: str) -> Optional[ClassInfo]:
        binding = self.attr_bindings.get(cls_qualname, {}).get(attr)
        if binding is None or binding.startswith("<"):
            return None
        return self.project.classes.get(binding)

    # -- object mutation -----------------------------------------------
    @staticmethod
    def _object_mutations(function: FunctionInfo) -> Set[str]:
        """Self attributes mutated *as objects* — plain ``self.a = v``
        rebinding excluded (that replaces the reference, it does not
        mutate the object other nodes may also hold)."""
        aliases = build_alias_map(function.node)
        mutated: Set[str] = set()
        for node, attrs in mutation_nodes(function.node, aliases):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                if all(
                    isinstance(t, ast.Attribute)
                    and isinstance(t.value, ast.Name)
                    and t.value.id == "self"
                    for t in targets
                ):
                    continue  # rebind, not object mutation
            mutated |= attrs
        return mutated

    def _build_mutators(self) -> None:
        """Per class: directly object-mutating attrs and self-mutating
        methods, then a fixpoint over ``self.m()`` call chains."""
        direct_by_method: Dict[str, Set[str]] = {}
        for cls in self.project.classes.values():
            attrs: Set[str] = set()
            mutators: Set[str] = set()
            for method in cls.methods.values():
                mutated = self._object_mutations(method)
                direct_by_method[method.qualname] = mutated
                if mutated:
                    attrs |= mutated
                    mutators.add(method.name)
            self.mutated_attrs[cls.qualname] = attrs
            self.self_mutators[cls.qualname] = mutators
        # self.m() chains: a method calling a self-mutator mutates too.
        changed = True
        while changed:
            changed = False
            for cls in self.project.classes.values():
                mutators = self.self_mutators[cls.qualname]
                for method in cls.methods.values():
                    if method.name in mutators:
                        continue
                    for node in ast.walk(method.node):
                        if not isinstance(node, ast.Call):
                            continue
                        func = node.func
                        if (
                            isinstance(func, ast.Attribute)
                            and isinstance(func.value, ast.Name)
                            and func.value.id == "self"
                            and func.attr in mutators
                        ):
                            mutators.add(method.name)
                            changed = True
                            break

    def _close_mutated_attrs(self) -> None:
        """Extend per-class mutated attrs through bound-class methods:
        ``self.a.m()`` where ``a`` is bound to class ``D`` and ``m``
        mutates ``D``'s own state mutates ``a``'s object."""
        for cls in self.project.classes.values():
            bindings = self.attr_bindings.get(cls.qualname, {})
            if not bindings:
                continue
            mutated = self.mutated_attrs[cls.qualname]
            for method in cls.methods.values():
                for node in ast.walk(method.node):
                    if not isinstance(node, ast.Call):
                        continue
                    func = node.func
                    if not (
                        isinstance(func, ast.Attribute)
                        and isinstance(func.value, ast.Attribute)
                        and isinstance(func.value.value, ast.Name)
                        and func.value.value.id == "self"
                    ):
                        continue
                    attr = func.value.attr
                    if attr in mutated or attr not in bindings:
                        continue
                    if func.attr in MUTATING_METHODS:
                        mutated.add(attr)
                        continue
                    bound = self.binding_class(cls.qualname, attr)
                    if bound is not None and func.attr in (
                        self.self_mutators.get(bound.qualname, set())
                    ):
                        mutated.add(attr)

    # -- param capture summaries ---------------------------------------
    def param_summary(self, qualname: str) -> Dict[str, ParamSummary]:
        return self.param_summaries.get(qualname, {})

    def _build_param_summaries(self) -> None:
        for function in self._functions():
            summaries = {
                name: ParamSummary() for name in _param_names(function)
            }
            if summaries:
                self.param_summaries[function.qualname] = summaries
                self._direct_param_facts(function, summaries)
        # Transitive: a param handed to a callee that stores/mutates it
        # is itself stored/mutated (``ReceivedLog(registry)``).
        changed = True
        rounds = 0
        while changed and rounds < 16:
            changed = False
            rounds += 1
            for function in self._functions():
                summaries = self.param_summaries.get(function.qualname)
                if not summaries:
                    continue
                if self._propagate_through_calls(function, summaries):
                    changed = True

    def _direct_param_facts(
        self, function: FunctionInfo, summaries: Dict[str, ParamSummary]
    ) -> None:
        cls = function.cls
        for node in ast.walk(function.node):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                value = node.value
                if value is None:
                    continue
                value_names = (
                    {value.id} if isinstance(value, ast.Name) else set()
                )
                for target in targets:
                    # self.X = p / obj.X = p / container[k] = p
                    if isinstance(target, (ast.Attribute, ast.Subscript)):
                        for name in value_names & summaries.keys():
                            summary = summaries[name]
                            summary.stored = True
                            if (
                                isinstance(target, ast.Attribute)
                                and isinstance(target.value, ast.Name)
                                and target.value.id == "self"
                                and cls is not None
                            ):
                                summary.stored_at.add(
                                    (cls.qualname, target.attr)
                                )
                    # p.X = v / p[k] = v mutates the param's object
                    root = target
                    while isinstance(root, (ast.Attribute, ast.Subscript)):
                        root = root.value
                    if (
                        isinstance(root, ast.Name)
                        and root.id in summaries
                        and root is not target
                    ):
                        summaries[root.id].mutated = True
            elif isinstance(node, ast.AugAssign):
                root = node.target
                while isinstance(root, (ast.Attribute, ast.Subscript)):
                    root = root.value
                if (
                    isinstance(root, ast.Name)
                    and root.id in summaries
                    and root is not node.target
                ):
                    summaries[root.id].mutated = True
            elif isinstance(node, ast.Call):
                func = node.func
                if not isinstance(func, ast.Attribute):
                    continue
                if func.attr in MUTATING_METHODS:
                    # p.add(...) mutates p; container.append(p) stores p.
                    if (
                        isinstance(func.value, ast.Name)
                        and func.value.id in summaries
                    ):
                        summaries[func.value.id].mutated = True
                    for arg in node.args:
                        if isinstance(arg, ast.Name) and arg.id in summaries:
                            summaries[arg.id].stored = True

    def _propagate_through_calls(
        self, function: FunctionInfo, summaries: Dict[str, ParamSummary]
    ) -> bool:
        changed = False
        for node in ast.walk(function.node):
            if not isinstance(node, ast.Call):
                continue
            resolved = resolve_call_target(
                self.project, function.module, function.cls, node
            )
            callee: Optional[FunctionInfo] = None
            if isinstance(resolved, FunctionInfo):
                callee = resolved
            elif isinstance(resolved, ClassInfo):
                callee = resolved.mro_method("__init__")
            if callee is None:
                continue
            callee_summaries = self.param_summaries.get(callee.qualname)
            if not callee_summaries:
                continue
            positional = _positional_params(callee)
            for param, arg in _map_call_args(node, positional):
                if not isinstance(arg, ast.Name) or arg.id not in summaries:
                    continue
                callee_summary = callee_summaries.get(param)
                if callee_summary is None:
                    continue
                summary = summaries[arg.id]
                if callee_summary.stored and not summary.stored:
                    summary.stored = True
                    changed = True
                if callee_summary.stored_at - summary.stored_at:
                    summary.stored_at |= callee_summary.stored_at
                    changed = True
                if callee_summary.mutated and not summary.mutated:
                    summary.mutated = True
                    changed = True
        return changed

    # -- shared captures -----------------------------------------------
    def shared_captures(
        self, constructions: Iterable[Construction]
    ) -> List[SharedCapture]:
        """Loop-invariant ctor args captured by per-node classes.

        A construction of a per-node class inside a loop hands each
        argument to *every* instance; an argument that does not derive
        from the loop variables (and is not a fresh per-iteration
        construction or constant) is one object shared across nodes.
        """
        captures: List[SharedCapture] = []
        for construction in constructions:
            if construction.cls.qualname not in self.per_node:
                continue
            if not construction.in_loop:
                continue
            init = construction.cls.mro_method("__init__")
            if init is None:
                continue
            loop_names = _loop_bound_names(
                construction.function.node, construction.node
            )
            positional = _positional_params(init)
            for param, arg in _map_call_args(construction.node, positional):
                if isinstance(arg, (ast.Constant, ast.Call, ast.IfExp,
                                    ast.Lambda)):
                    continue  # fresh / constant / conditional per call
                if not isinstance(arg, (ast.Name, ast.Attribute)):
                    continue
                if _names_in(arg) & loop_names:
                    continue  # derives from the loop variable: per-node
                summary = self.param_summaries.get(
                    init.qualname, {}
                ).get(param)
                if summary is None or not summary.stored:
                    continue
                homes = set(summary.stored_at)
                if not homes:
                    homes = {(construction.cls.qualname, param)}
                capture = SharedCapture(
                    construction,
                    param,
                    homes,
                    self._arg_class(construction.function, arg),
                    arg,
                )
                capture.mutated = summary.mutated or any(
                    attr in self.mutated_attrs.get(cls_qualname, set())
                    for cls_qualname, attr in homes
                )
                captures.append(capture)
        captures.sort(
            key=lambda c: (
                c.construction.function.module.rel,
                getattr(c.construction.node, "lineno", 0),
                c.param,
            )
        )
        return captures

    def _arg_class(
        self, function: FunctionInfo, arg: ast.expr
    ) -> Optional[ClassInfo]:
        """The class of a ctor argument, when statically resolvable."""
        if isinstance(arg, ast.Attribute) and isinstance(arg.value, ast.Name):
            if arg.value.id == "self" and function.cls is not None:
                return self.binding_class(function.cls.qualname, arg.attr)
            return None
        if isinstance(arg, ast.Name):
            ann = _param_annotation(function, arg.id)
            if ann is not None:
                binding = self._annotation_binding(function.module, ann)
                if binding and not binding.startswith("<"):
                    return self.project.classes.get(binding)
            # name = Cls(...) earlier in the same function
            for node in ast.walk(function.node):
                if not isinstance(node, ast.Assign):
                    continue
                if not any(
                    isinstance(t, ast.Name) and t.id == arg.id
                    for t in node.targets
                ):
                    continue
                value = node.value
                if isinstance(value, ast.IfExp):
                    value = value.body
                if isinstance(value, ast.Call):
                    resolved = resolve_call_target(
                        self.project, function.module, function.cls, value
                    )
                    if isinstance(resolved, ClassInfo):
                        return resolved
        return None

    # -- boundary calls -------------------------------------------------
    def boundary_calls(self) -> List[BoundaryCall]:
        """Every touchpoint use inside a per-node class method — the
        cross-node edges of the ownership graph."""
        calls: List[BoundaryCall] = []
        for qualname in sorted(self.per_node):
            cls = self.project.classes.get(qualname)
            if cls is None:
                continue
            for name in sorted(cls.methods):
                method = cls.methods[name]
                for node in ast.walk(method.node):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in BOUNDARY_ATTRS
                    ):
                        calls.append(BoundaryCall(method, node.func.attr, node))
        return calls

    # -- owner classification ------------------------------------------
    def owner_of(
        self,
        cls: ClassInfo,
        attr: str,
        shared_attrs: Set[Tuple[str, str]],
        payload_attrs: Set[Tuple[str, str]],
    ) -> str:
        if (cls.qualname, attr) in shared_attrs:
            return OWNER_SHARED
        binding = self.attr_bindings.get(cls.qualname, {}).get(attr)
        if binding == _IMMUTABLE:
            return OWNER_IMMUTABLE
        if binding is not None and not binding.startswith("<"):
            bound = self.project.classes.get(binding)
            if bound is not None:
                layer = self._layer_of(bound.module.name)
                if layer is not None and layer not in self._confined:
                    return OWNER_ENGINE
                if _is_frozen_dataclass(bound):
                    return OWNER_IMMUTABLE
        if (cls.qualname, attr) in payload_attrs:
            return OWNER_LINK_PAYLOAD
        return OWNER_NODE_LOCAL

    def payload_attrs(self) -> Set[Tuple[str, str]]:
        """``(class, attr)`` pairs whose value is handed to a boundary
        send somewhere in the class — link-payload owners."""
        out: Set[Tuple[str, str]] = set()
        for qualname in self.per_node:
            cls = self.project.classes.get(qualname)
            if cls is None:
                continue
            for method in cls.methods.values():
                for node in ast.walk(method.node):
                    if not (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in BOUNDARY_SEND_ATTRS
                    ):
                        continue
                    for arg in node.args:
                        for sub in ast.walk(arg):
                            if (
                                isinstance(sub, ast.Attribute)
                                and isinstance(sub.value, ast.Name)
                                and sub.value.id == "self"
                            ):
                                out.add((qualname, sub.attr))
        return out
