"""Interprocedural effect inference over the project call graph.

Every analyzed function gets an *effect set* describing what it touches
beyond its arguments, propagated transitively through the call graph the
import/MRO machinery of :mod:`.model` can resolve:

========================  ==============================================
``sim-time``              reads the simulation clock (``<sim>.now``)
``sim-schedule``          schedules on the calendar (``<sim>.schedule*``)
``sim-engine``            holds/constructs an engine object (``.sim`` /
                          ``._sim`` reads, engine-layer constructors)
``rng-draw``              draws from an injected RNG
``rng-stream:<name>``     requests a named ``RandomStreams`` stream
                          (``?`` when the name is not a literal)
``wall-clock``            reads host time (``time.time`` & friends)
``blocking``              calls a host-blocking primitive (``time.sleep``,
                          sync socket/file/subprocess I/O)
``net-send``              emits a message (``.send``/``.send_oob``/
                          ``.transmit``/``.send_gossip``)
``global-mut:<target>``   mutates a module-level mutable binding
========================  ==============================================

Resolvable call edges are ``self.method()`` (through the MRO),
``super().method()``, module-level functions, class constructors
(edge to ``__init__``), ``functools.partial`` targets, instance-bound
entry points (``self.send_gossip`` rebound in ``__init__`` to
``self._send_gossip``), and ``@property`` reads.  Effects of nested
``def``/``lambda`` bodies are attributed to the enclosing function — a
callback's effects belong to whoever builds it.

Propagation is a fixpoint union with one asymmetry: the three ``sim-*``
effects do **not** propagate out of a declared *engine touchpoint* or out
of a module whose layer is mapped but not confined (the transport layer is
*licensed* to schedule; calling ``network.send`` is not engine coupling).
That is what lets REP201 say "protocol code reaches the engine" without
flagging every caller of the network API.

The same pass records where classes are constructed (and whether inside a
loop), which seeds the per-node/per-event class set REP202 and REP203
reason about.
"""

from __future__ import annotations

import ast
from typing import (
    Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union,
)

from ..config import LayersConfig
from .dataflow import MUTATING_METHODS
from .layers import LayerMap
from .model import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    Project,
    dotted_parts,
)

__all__ = [
    "SIM_TIME",
    "SIM_SCHEDULE",
    "SIM_ENGINE",
    "RNG_DRAW",
    "WALL_CLOCK",
    "BLOCKING",
    "NET_SEND",
    "STREAM_PREFIX",
    "GLOBAL_MUT_PREFIX",
    "SIM_EFFECTS",
    "Construction",
    "StreamRequest",
    "FunctionEffects",
    "EffectMap",
    "infer_effects",
    "resolve_call_target",
    "stream_name",
]

SIM_TIME = "sim-time"
SIM_SCHEDULE = "sim-schedule"
SIM_ENGINE = "sim-engine"
RNG_DRAW = "rng-draw"
WALL_CLOCK = "wall-clock"
BLOCKING = "blocking"
NET_SEND = "net-send"
#: parameterized effects: ``rng-stream:<name>@<requesting module>`` and
#: ``global-mut:<module>.<binding>``.
STREAM_PREFIX = "rng-stream:"
GLOBAL_MUT_PREFIX = "global-mut:"

SIM_EFFECTS = frozenset({SIM_TIME, SIM_SCHEDULE, SIM_ENGINE})

#: Receiver path segments that mark an expression as "the simulator".
_SIMISH = frozenset({"sim", "_sim", "simulator", "_simulator"})
#: Attribute reads that hand out an engine reference.
_ENGINE_ATTRS = frozenset({"sim", "_sim"})
_SCHEDULE_ATTRS = frozenset(
    {"schedule", "schedule_at", "schedule_call", "schedule_call_at"}
)
#: Draw methods of ``random.Random`` (receiver must look like an RNG).
_RNG_DRAW_METHODS = frozenset(
    {
        "betavariate", "choice", "choices", "expovariate", "gauss",
        "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
        "randint", "random", "randrange", "sample", "shuffle", "triangular",
        "uniform", "vonmisesvariate",
    }
)
_RNGISH = frozenset({"rng", "_rng", "rand", "random", "rnd"})
_STREAM_METHODS = frozenset({"stream", "substreams", "compact_stream"})
_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns", "time.process_time",
        "datetime.datetime.now", "datetime.datetime.utcnow",
    }
)
#: Host-blocking primitives: sleeping, synchronous socket/file/process
#: I/O, console input.  Resolved against the canonical dotted call name
#: (``open`` is the bare builtin).  Anything here reachable from
#: protocol-layer code stalls a cooperative (asyncio) backend — REP304.
_BLOCKING_CALLS = frozenset(
    {
        "time.sleep", "open", "input",
        "socket.socket", "socket.create_connection", "socket.socketpair",
        "subprocess.run", "subprocess.call", "subprocess.check_call",
        "subprocess.check_output", "subprocess.Popen",
        "os.system", "os.popen", "os.wait", "os.waitpid",
        "urllib.request.urlopen", "http.client.HTTPConnection",
        "requests.get", "requests.post", "requests.request",
    }
)
#: Attribute calls that emit a message into the transport (the same
#: boundary set REP101/REP205 use); seeds the ``net-send`` effect.
_NET_SEND_ATTRS = frozenset({"send", "send_oob", "transmit", "send_gossip"})
#: Constructors whose result is a mutable container (module-global scan).
_MUTABLE_FACTORY_NAMES = frozenset(
    {
        "dict", "list", "set", "collections.defaultdict",
        "collections.deque", "collections.Counter",
        "collections.OrderedDict",
    }
)
_MUTABLE_LITERALS = (ast.Dict, ast.List, ast.Set, ast.ListComp, ast.SetComp,
                     ast.DictComp)


def stream_name(effect: str) -> Tuple[str, str]:
    """``rng-stream:<name>@<module>`` → ``(name, module)``."""
    body = effect[len(STREAM_PREFIX):]
    name, _, origin = body.partition("@")
    return name, origin


class Construction:
    """One resolved ``Cls(...)`` call site."""

    __slots__ = ("cls", "node", "in_loop", "function")

    def __init__(
        self,
        cls: ClassInfo,
        node: ast.Call,
        in_loop: bool,
        function: FunctionInfo,
    ) -> None:
        self.cls = cls
        self.node = node
        self.in_loop = in_loop
        self.function = function


class StreamRequest:
    """One ``<streams>.stream(...)`` / ``substreams(...)`` call site.

    ``name`` is the literal stream name, a ``prefix*`` pattern when the
    name is an f-string with a literal head, or ``None`` when fully
    dynamic.  ``consumer`` is the module whose code the stream is handed
    to: the innermost enclosing resolved call's defining module, falling
    back to the requesting module itself.
    """

    __slots__ = ("name", "node", "function", "consumer")

    def __init__(
        self,
        name: Optional[str],
        node: ast.Call,
        function: FunctionInfo,
        consumer: str,
    ) -> None:
        self.name = name
        self.node = node
        self.function = function
        self.consumer = consumer


class FunctionEffects:
    """Direct facts + fixpoint-propagated effect set for one function."""

    __slots__ = ("function", "direct", "effects", "sites", "callees",
                 "constructions", "stream_requests", "via")

    def __init__(self, function: FunctionInfo) -> None:
        self.function = function
        self.direct: Set[str] = set()
        #: direct ∪ propagated (after the fixpoint).
        self.effects: Set[str] = set()
        #: effect -> first AST node exhibiting it *directly*.
        self.sites: Dict[str, ast.AST] = {}
        #: resolved ``(callee qualname, call site inside a loop?)`` pairs.
        self.callees: List[Tuple[str, bool]] = []
        self.constructions: List[Construction] = []
        self.stream_requests: List[StreamRequest] = []
        #: effect -> callee qualname it was first inherited from.
        self.via: Dict[str, str] = {}


class EffectMap:
    """The inferred effects of every function in the project."""

    def __init__(self, project: Project, layer_map: LayerMap) -> None:
        self.project = project
        self.layer_map = layer_map
        self.functions: Dict[str, FunctionEffects] = {}

    def of(self, qualname: str) -> Optional[FunctionEffects]:
        return self.functions.get(qualname)

    def all_constructions(self) -> Iterable[Construction]:
        for record in self.functions.values():
            yield from record.constructions

    def module_summary(self, module_name: str) -> Dict[str, List[str]]:
        """effect -> sorted function qualnames exhibiting it (report)."""
        summary: Dict[str, Set[str]] = {}
        for qualname, record in self.functions.items():
            if record.function.module.name != module_name:
                continue
            for effect in record.effects:
                if effect.startswith(STREAM_PREFIX):
                    effect = STREAM_PREFIX + stream_name(effect)[0]
                summary.setdefault(effect, set()).add(qualname)
        return {
            effect: sorted(owners)
            for effect, owners in sorted(summary.items())
        }


# ----------------------------------------------------------------------
# Direct-effect extraction
# ----------------------------------------------------------------------


def module_mutable_globals(module: ModuleInfo) -> Dict[str, ast.stmt]:
    """Module-level names bound to mutable containers."""
    out: Dict[str, ast.stmt] = {}
    for stmt in module.tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = list(stmt.targets), stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None or not _is_mutable_value(module, value):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                out[target.id] = stmt
    return out


def _is_mutable_value(module: ModuleInfo, value: ast.expr) -> bool:
    if isinstance(value, _MUTABLE_LITERALS):
        return True
    if isinstance(value, ast.Call):
        resolved = module.resolve_call(value)
        return resolved in _MUTABLE_FACTORY_NAMES
    return False


def module_class_registries(
    module: ModuleInfo, project: Project
) -> Dict[str, List[ClassInfo]]:
    """Module-level dict literals whose values are project classes.

    ``ALGORITHMS = {NoRecovery.name: NoRecovery, ...}`` is a *class
    registry*: calling a subscript of it (``ALGORITHMS[name](...)``)
    constructs one of the registered classes.  The extractor turns such
    calls into construction records for every registered class, so the
    per-node closure sees through registry-based factories.
    """
    registries: Dict[str, List[ClassInfo]] = {}
    for stmt in module.tree.body:
        if not isinstance(stmt, ast.Assign):
            continue
        if not isinstance(stmt.value, ast.Dict):
            continue
        classes: List[ClassInfo] = []
        for value in stmt.value.values:
            parts = dotted_parts(value)
            if parts is None:
                continue
            resolved = project.resolve_name(module, parts)
            if isinstance(resolved, ClassInfo):
                classes.append(resolved)
        if not classes:
            continue
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                registries[target.id] = classes
    return registries


def _local_bindings(func: ast.AST) -> Tuple[Set[str], Set[str]]:
    """(locally-bound names, ``global``-declared names) of a function body."""
    local: Set[str] = set()
    declared_global: Set[str] = set()
    args = getattr(func, "args", None)
    if args is not None:
        for arg in (
            *args.posonlyargs, *args.args, *args.kwonlyargs,
            *([args.vararg] if args.vararg else []),
            *([args.kwarg] if args.kwarg else []),
        ):
            local.add(arg.arg)
    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            local.add(node.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            for sub in ast.walk(node.target):
                if isinstance(sub, ast.Name):
                    local.add(sub.id)
        elif isinstance(node, ast.comprehension):
            for sub in ast.walk(node.target):
                if isinstance(sub, ast.Name):
                    local.add(sub.id)
    return local - declared_global, declared_global


def _receiver_parts(call_func: ast.expr) -> Optional[List[str]]:
    if not isinstance(call_func, ast.Attribute):
        return None
    return dotted_parts(call_func.value)


def _is_simish(parts: Optional[Sequence[str]]) -> bool:
    return bool(parts) and bool(_SIMISH.intersection(parts))


def _is_rngish(parts: Optional[Sequence[str]]) -> bool:
    if not parts:
        return False
    return any(
        part in _RNGISH or part.endswith("rng") or part.startswith("rng")
        for part in parts
    )


def _is_streamsish(parts: Optional[Sequence[str]]) -> bool:
    if not parts:
        return False
    return any("stream" in part or part in ("rngs", "_rngs") for part in parts)


def _literal_stream_name(arg: ast.expr) -> Optional[str]:
    """Literal / prefix-literal stream name, ``None`` when dynamic."""
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value
    if isinstance(arg, ast.JoinedStr):
        prefix = ""
        for value in arg.values:
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                prefix += value.value
            else:
                break
        return f"{prefix}*" if prefix else None
    return None


def resolve_call_target(
    project: Project,
    module: ModuleInfo,
    cls: Optional[ClassInfo],
    node: ast.Call,
) -> Union[ClassInfo, FunctionInfo, None]:
    """Resolve one call site to the project symbol it invokes.

    Shared by the effect extractor and the ownership pass.  Handles
    ``self.method()`` (through the MRO), ``super().method()``, dotted
    module-level names, constructors, and ``functools.partial(target,
    ...)`` (resolved to ``target`` — a callback's effects belong to
    whoever builds it).
    """
    func = node.func
    parts = dotted_parts(func)
    if parts is not None:
        canonical = module.resolve_parts(parts)
        if canonical == "functools.partial" and node.args:
            target = node.args[0]
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and cls is not None
            ):
                return cls.mro_method(target.attr)
            target_parts = dotted_parts(target)
            if target_parts is not None:
                return project.resolve_name(module, target_parts)
            return None
    # self.method() through the MRO.
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id == "self"
        and cls is not None
    ):
        return cls.mro_method(func.attr)
    # super().method()
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Call)
        and isinstance(func.value.func, ast.Name)
        and func.value.func.id == "super"
        and cls is not None
    ):
        for base in cls.bases:
            method = base.mro_method(func.attr)
            if method is not None:
                return method
        return None
    if parts is None:
        return None
    return project.resolve_name(module, parts)


def _is_property(method: FunctionInfo) -> bool:
    """Decorated as a ``@property`` / ``@cached_property`` getter?"""
    for decorator in getattr(method.node, "decorator_list", []):
        parts = dotted_parts(decorator)
        if parts and parts[-1] in ("property", "cached_property"):
            return True
    return False


def _instance_bindings(
    cls: ClassInfo,
    cache: Dict[str, Dict[str, List[FunctionInfo]]],
) -> Dict[str, List[FunctionInfo]]:
    """``attr -> methods`` for instance attributes rebound to the class's
    own methods (``self.send_gossip = self._send_gossip`` at setup time).
    Scans the whole MRO once per class and memoizes in ``cache``."""
    hit = cache.get(cls.qualname)
    if hit is not None:
        return hit
    bindings: Dict[str, List[FunctionInfo]] = {}
    for ancestor in reversed(cls.mro()):
        for method in ancestor.methods.values():
            for node in ast.walk(method.node):
                if not isinstance(node, ast.Assign):
                    continue
                value = node.value
                if not (
                    isinstance(value, ast.Attribute)
                    and isinstance(value.value, ast.Name)
                    and value.value.id == "self"
                ):
                    continue
                target_method = cls.mro_method(value.attr)
                if target_method is None:
                    continue
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and target.attr != value.attr
                    ):
                        candidates = bindings.setdefault(target.attr, [])
                        if target_method not in candidates:
                            candidates.append(target_method)
    cache[cls.qualname] = bindings
    return bindings


class _Extractor:
    """Direct effects, call edges, constructions of one function body."""

    def __init__(
        self,
        project: Project,
        record: FunctionEffects,
        mutable_globals: Dict[str, ast.stmt],
        registries: Dict[str, List[ClassInfo]],
        layer_map: LayerMap,
        bound_cache: Optional[Dict[str, Dict[str, List[FunctionInfo]]]] = None,
    ) -> None:
        self.project = project
        self.record = record
        self.function = record.function
        self.module = record.function.module
        self.cls = record.function.cls
        self.mutable_globals = mutable_globals
        self.registries = registries
        self.layer_map = layer_map
        #: class qualname -> attr -> methods rebound onto the instance
        #: (``self.send_gossip = self._send_gossip`` in ``__init__``).
        self.bound_cache = bound_cache if bound_cache is not None else {}
        self.locals, self.declared_global = _local_bindings(
            record.function.node
        )
        #: local names bound to a registry subscript (``cls = REG[name]``).
        self.registry_locals: Dict[str, List[ClassInfo]] = {}
        for node in ast.walk(record.function.node):
            if not isinstance(node, ast.Assign):
                continue
            classes = self._registry_subscript(node.value)
            if classes is None:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.registry_locals[target.id] = classes

    def _registry_subscript(
        self, expr: ast.expr
    ) -> Optional[List[ClassInfo]]:
        """``REG[key]`` / ``REG.get(key)`` for a known class registry."""
        if isinstance(expr, ast.Subscript):
            root = expr.value
        elif (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr == "get"
        ):
            root = expr.func.value
        else:
            return None
        if isinstance(root, ast.Name) and root.id not in self.locals:
            return self.registries.get(root.id)
        return None

    # ------------------------------------------------------------------
    def run(self) -> None:
        self._walk(self.function.node, in_loop=False)
        self._assign_stream_consumers()

    def _walk(self, node: ast.AST, in_loop: bool) -> None:
        for child in ast.iter_child_nodes(node):
            child_in_loop = in_loop or isinstance(
                node,
                (
                    ast.For, ast.AsyncFor, ast.While, ast.comprehension,
                    ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
                ),
            )
            self._visit(child, child_in_loop)
            self._walk(child, child_in_loop)

    def _visit(self, node: ast.AST, in_loop: bool) -> None:
        if isinstance(node, ast.Attribute):
            self._visit_attribute(node)
        elif isinstance(node, ast.Call):
            self._visit_call(node, in_loop)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            self._visit_assignment(node)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                self._global_target(target, node)

    # ------------------------------------------------------------------
    def _add(self, effect: str, node: ast.AST) -> None:
        self.record.direct.add(effect)
        self.record.sites.setdefault(effect, node)

    def _visit_attribute(self, node: ast.Attribute) -> None:
        if not isinstance(node.ctx, ast.Load):
            return
        if node.attr == "now" and _is_simish(dotted_parts(node.value)):
            self._add(SIM_TIME, node)
        elif node.attr in _ENGINE_ATTRS:
            self._add(SIM_ENGINE, node)
        # A @property read runs the getter: reading ``self.elapsed`` on a
        # class whose ``elapsed`` getter touches the clock inherits the
        # getter's effects exactly like a call would.
        if (
            isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and self.cls is not None
        ):
            method = self.cls.mro_method(node.attr)
            if method is not None and _is_property(method):
                self.record.callees.append((method.qualname, False))

    def _visit_call(self, node: ast.Call, in_loop: bool) -> None:
        func = node.func
        receiver = _receiver_parts(func)
        attr = func.attr if isinstance(func, ast.Attribute) else None

        if attr in _SCHEDULE_ATTRS and _is_simish(receiver):
            self._add(SIM_SCHEDULE, node)
        if attr in _NET_SEND_ATTRS:
            self._add(NET_SEND, node)
        if attr in _RNG_DRAW_METHODS and _is_rngish(receiver):
            self._add(RNG_DRAW, node)
        if (
            attr in _STREAM_METHODS
            and _is_streamsish(receiver)
            and node.args
        ):
            name = _literal_stream_name(node.args[0])
            if name is not None and attr == "substreams":
                name = f"{name}[*"
            self.record.stream_requests.append(
                StreamRequest(name, node, self.function, self.module.name)
            )
        if attr in MUTATING_METHODS and isinstance(func, ast.Attribute):
            root = func.value
            if (
                isinstance(root, ast.Name)
                and self._is_module_global(root.id)
            ):
                self._add(
                    f"{GLOBAL_MUT_PREFIX}{self.module.name}.{root.id}", node
                )

        resolved = self._resolve_callee(node)
        if isinstance(resolved, FunctionInfo):
            self.record.callees.append((resolved.qualname, in_loop))
        elif isinstance(resolved, ClassInfo):
            self._construct(resolved, node, in_loop)
        else:
            bound = self._instance_bound_targets(node)
            if bound:
                for method in bound:
                    self.record.callees.append((method.qualname, in_loop))
                return
            registry_classes = None
            if isinstance(func, ast.Name):
                registry_classes = self.registry_locals.get(func.id)
            if registry_classes is None:
                registry_classes = self._registry_subscript(func)
            if registry_classes is not None:
                for cls in registry_classes:
                    self._construct(cls, node, in_loop)
            else:
                dotted = self.module.resolve_call(node)
                if dotted in _WALL_CLOCK_CALLS:
                    self._add(WALL_CLOCK, node)
                elif dotted in _BLOCKING_CALLS:
                    self._add(BLOCKING, node)

    def _construct(
        self, cls: ClassInfo, node: ast.Call, in_loop: bool
    ) -> None:
        self.record.constructions.append(
            Construction(cls, node, in_loop, self.function)
        )
        if self.layer_map.is_engine_module(cls.module.name):
            self._add(SIM_ENGINE, node)
        init = cls.mro_method("__init__")
        if init is not None:
            self.record.callees.append((init.qualname, in_loop))

    def _visit_assignment(self, node: ast.stmt) -> None:
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]  # type: ignore[attr-defined]
        )
        for target in targets:
            self._global_target(target, node)

    def _global_target(self, target: ast.expr, node: ast.AST) -> None:
        """Record mutation of a module-level mutable binding."""
        if isinstance(target, ast.Name):
            if (
                target.id in self.declared_global
                and target.id in self.mutable_globals
            ):
                self._add(
                    f"{GLOBAL_MUT_PREFIX}{self.module.name}.{target.id}", node
                )
            return
        root = target
        while isinstance(root, (ast.Attribute, ast.Subscript)):
            root = root.value
        if isinstance(root, ast.Name) and self._is_module_global(root.id):
            self._add(
                f"{GLOBAL_MUT_PREFIX}{self.module.name}.{root.id}", node
            )

    def _is_module_global(self, name: str) -> bool:
        return name in self.mutable_globals and name not in self.locals

    # ------------------------------------------------------------------
    def _instance_bound_targets(
        self, node: ast.Call
    ) -> Optional[List[FunctionInfo]]:
        """Methods a ``self.X(...)`` call can dispatch to when ``X`` is an
        instance attribute rebound to one of the class's own methods
        (``self.send_gossip = self._send_gossip`` in ``__init__`` — the
        setup-time method-binding idiom).  All candidate bindings are
        returned: a conditional rebind contributes every branch."""
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and self.cls is not None
        ):
            return None
        return _instance_bindings(self.cls, self.bound_cache).get(func.attr)

    def _resolve_callee(self, node: ast.Call):
        return resolve_call_target(
            self.project, self.module, self.cls, node
        )

    def _assign_stream_consumers(self) -> None:
        """Innermost resolved call wrapping a stream request names its
        consumer module (``Dispatcher(..., streams.stream("cache[0]"))``
        hands the stream to ``repro.pubsub.dispatcher``)."""
        if not self.record.stream_requests:
            return
        by_node = {req.node: req for req in self.record.stream_requests}
        # ast.walk is breadth-first: outer calls precede inner ones, so a
        # later (deeper) match overwrites an earlier (outer) one.
        for node in ast.walk(self.function.node):
            if not isinstance(node, ast.Call):
                continue
            resolved = self._resolve_callee(node)
            if resolved is None:
                continue
            module_name = resolved.module.name
            for arg in (*node.args, *(kw.value for kw in node.keywords)):
                for sub in ast.walk(arg):
                    request = by_node.get(sub)
                    if request is not None:
                        request.consumer = module_name


# ----------------------------------------------------------------------
# Fixpoint propagation
# ----------------------------------------------------------------------


def _propagates_sim(layer_map: LayerMap, callee: FunctionInfo) -> bool:
    """May ``sim-*`` effects flow out of ``callee`` into its callers?"""
    config = layer_map.config
    names = [callee.qualname, callee.name]
    if callee.cls is not None:
        names.append(f"{callee.cls.name}.{callee.name}")
    if config.is_touchpoint(*names):
        return False
    layer = layer_map.layer_of_module(callee.module.name)
    if layer is not None and layer not in set(config.confined):
        # A mapped, unconfined layer (engine itself, transport, scenarios)
        # is licensed to touch the engine; calling into it is not coupling.
        return False
    return True


def infer_effects(project: Project, layer_map: LayerMap) -> EffectMap:
    """Extract direct effects and run the call-graph fixpoint."""
    effect_map = EffectMap(project, layer_map)
    globals_cache: Dict[str, Dict[str, ast.stmt]] = {}
    registry_cache: Dict[str, Dict[str, List[ClassInfo]]] = {}
    bound_cache: Dict[str, Dict[str, List[FunctionInfo]]] = {}

    def functions() -> Iterable[FunctionInfo]:
        for module in project.modules.values():
            yield from module.functions.values()
            for cls in module.classes.values():
                yield from cls.methods.values()

    for function in functions():
        record = FunctionEffects(function)
        module = function.module
        mutable_globals = globals_cache.get(module.name)
        if mutable_globals is None:
            mutable_globals = module_mutable_globals(module)
            globals_cache[module.name] = mutable_globals
        registries = registry_cache.get(module.name)
        if registries is None:
            registries = module_class_registries(module, project)
            registry_cache[module.name] = registries
        _Extractor(
            project, record, mutable_globals, registries, layer_map,
            bound_cache,
        ).run()
        for request in record.stream_requests:
            name = request.name if request.name is not None else "?"
            record.direct.add(f"{STREAM_PREFIX}{name}@{module.name}")
            record.sites.setdefault(
                f"{STREAM_PREFIX}{name}@{module.name}", request.node
            )
        record.effects = set(record.direct)
        effect_map.functions[function.qualname] = record

    sim_barrier: Dict[str, bool] = {}
    for qualname, record in effect_map.functions.items():
        sim_barrier[qualname] = _propagates_sim(layer_map, record.function)

    changed = True
    while changed:
        changed = False
        for record in effect_map.functions.values():
            for callee, _in_loop in record.callees:
                callee_record = effect_map.functions.get(callee)
                if callee_record is None:
                    continue
                inherited = callee_record.effects
                if not sim_barrier[callee]:
                    inherited = inherited - SIM_EFFECTS
                new = inherited - record.effects
                if new:
                    record.effects |= new
                    for effect in new:
                        record.via.setdefault(effect, callee)
                    changed = True
    return effect_map


# ----------------------------------------------------------------------
# Per-node / per-event classes
# ----------------------------------------------------------------------


def per_node_classes(
    project: Project,
    effect_map: EffectMap,
    in_scope: Optional[Callable[[str], bool]] = None,
    factory_scope: Optional[Callable[[str], bool]] = None,
) -> Dict[str, str]:
    """``class qualname -> why it is per-node`` (seeds + fixpoint).

    Seeds: constructed inside a loop or comprehension, or constructed by
    a module-level factory that is itself called inside a loop
    (``create_recovery`` per node).  Closure: constructed by a method a
    per-node class inherits or defines — ``Dispatcher.publish`` building
    an ``Event`` makes ``Event`` per-event, and
    ``RecoveryAlgorithm.__init__`` building the gossip ``PeriodicTimer``
    makes the timer per-node once any concrete algorithm is.

    ``in_scope`` limits where *seeds* may come from (by the constructing
    function's module name).  Loops in layer-mapped modules express
    per-node/per-event cardinality; loops in driver scripts and
    benchmarks sweep whole-simulation configurations, and must not make
    one-per-run engine objects look per-node.  ``factory_scope``
    additionally limits which *factories* may seed when called in a
    loop: a factory living in the driver layer (``run_scenario``)
    constructs whole simulations, so a sweep calling it repeatedly says
    nothing about per-node cardinality -- while the same loop over a
    protocol-layer factory (``create_recovery``) is exactly the
    one-object-per-node signal the heuristic wants.  The closure is not
    filtered: whatever a genuinely per-node class constructs is per-node
    wherever it lives.
    """
    if in_scope is None:
        in_scope = lambda module_name: True  # noqa: E731
    if factory_scope is None:
        factory_scope = in_scope
    called_in_loop: Set[str] = set()
    for record in effect_map.functions.values():
        if not in_scope(record.function.module.name):
            continue
        for callee, in_loop in record.callees:
            if in_loop:
                called_in_loop.add(callee)

    reasons: Dict[str, str] = {}
    changed = True
    while changed:
        changed = False
        # Methods *inherited* by a per-node class run per-node too.
        context: Set[str] = set()
        for qualname in reasons:
            cls = project.classes.get(qualname)
            if cls is not None:
                context.update(a.qualname for a in cls.mro())
        for construction in effect_map.all_constructions():
            if construction.cls.qualname in reasons:
                continue
            function = construction.function
            seedable = in_scope(function.module.name)
            reason: Optional[str] = None
            if construction.in_loop and seedable:
                reason = f"constructed in a loop in {function.qualname}"
            elif (
                function.cls is None
                and function.qualname in called_in_loop
                and factory_scope(function.module.name)
            ):
                reason = (
                    f"constructed by {function.qualname}(), itself called "
                    "in a loop"
                )
            elif function.cls is not None and function.cls.qualname in context:
                reason = f"constructed by per-node {function.qualname}"
            if reason is not None:
                reasons[construction.cls.qualname] = reason
                changed = True
    return reasons
