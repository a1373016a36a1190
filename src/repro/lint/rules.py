"""The determinism and protocol-invariant rules, REP001–REP006.

Each rule is a singleton object with a ``code``, a ``name``, a one-line
``summary``, and one or more ``check_*`` hooks the walker calls as it visits
the AST.  Hooks receive the :class:`~repro.lint.walker.FileContext` (import
aliases, path info), the node, and an ``add(code, node, message)`` callback.

Rules are syntactic: they reason about what the source *says*, not about
runtime types.  That keeps them fast and dependency-free, at the cost of the
occasional false positive — which is what inline suppression
(``# repro-lint: disable=REPnnn``) is for.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, List, Optional

__all__ = ["Rule", "RULES", "all_codes", "rules_by_code"]

AddFn = Callable[[str, ast.AST, str], None]

#: Module-level functions of :mod:`random` that draw from (or mutate) the
#: hidden global generator.  ``random.Random`` itself is *allowed*: creating a
#: seeded instance is exactly what the determinism policy asks for.
_GLOBAL_RANDOM_FUNCS = frozenset(
    {
        "betavariate", "binomialvariate", "choice", "choices", "expovariate",
        "gammavariate", "gauss", "getrandbits", "getstate", "lognormvariate",
        "normalvariate", "paretovariate", "randbytes", "randint", "random",
        "randrange", "sample", "seed", "setstate", "shuffle", "triangular",
        "uniform", "vonmisesvariate", "weibullvariate",
    }
)

#: Wall-clock reads.  Any of these leaking into simulation logic makes a run
#: depend on the host machine instead of the master seed.
_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time", "time.time_ns",
        "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns",
        "time.process_time", "time.process_time_ns",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    }
)

#: Set-algebra methods whose result has no defined iteration order.
_SET_ALGEBRA_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference"}
)

#: Calls that schedule or block outside the simulation engine.
_FOREIGN_SCHEDULERS = frozenset(
    {"time.sleep", "threading.Timer", "sched.scheduler", "asyncio.sleep"}
)
_FOREIGN_SCHEDULER_METHODS = frozenset(
    {"call_later", "call_at", "call_soon", "call_soon_threadsafe"}
)

#: Constructors that produce a fresh mutable object — poison as a default.
_MUTABLE_FACTORIES = frozenset(
    {
        "list", "dict", "set", "bytearray",
        "collections.defaultdict", "collections.OrderedDict",
        "collections.deque", "collections.Counter",
    }
)


class Rule:
    """Base class: identifies a rule; hooks default to no-ops."""

    code: str = ""
    name: str = ""
    summary: str = ""

    def check_call(self, ctx, node: ast.Call, add: AddFn) -> None:
        pass

    def check_iter(self, ctx, node: ast.AST, iter_node: ast.expr, add: AddFn) -> None:
        pass

    def check_function(self, ctx, node: ast.AST, add: AddFn) -> None:
        pass


class GlobalRandomRule(Rule):
    """REP001: randomness must flow through an injected ``random.Random``."""

    code = "REP001"
    name = "global-random"
    summary = (
        "call to the module-level random generator; inject a seeded "
        "random.Random (see repro.sim.rng.RandomStreams) instead"
    )

    def check_call(self, ctx, node: ast.Call, add: AddFn) -> None:
        target = ctx.resolve_call(node)
        if target is None:
            return
        if target == "random.SystemRandom":
            add(
                self.code,
                node,
                "random.SystemRandom draws OS entropy and can never be "
                "seeded; use an injected random.Random",
            )
            return
        module, _, func = target.rpartition(".")
        if module == "random" and func in _GLOBAL_RANDOM_FUNCS:
            add(
                self.code,
                node,
                f"random.{func}() uses the hidden module-level generator; "
                "inject a random.Random (see repro.sim.rng.RandomStreams)",
            )


class WallClockRule(Rule):
    """REP002: no wall-clock reads in simulation logic."""

    code = "REP002"
    name = "wall-clock"
    summary = (
        "wall-clock read; simulation time must come from Simulator.now "
        "so runs replay bit-identically"
    )

    def check_call(self, ctx, node: ast.Call, add: AddFn) -> None:
        target = ctx.resolve_call(node)
        if target in _WALL_CLOCK_CALLS:
            add(
                self.code,
                node,
                f"{target}() reads the wall clock; use Simulator.now (or "
                "suppress if this only times the run for reporting)",
            )


class UnorderedIterationRule(Rule):
    """REP003: no iteration whose order the language does not define."""

    code = "REP003"
    name = "unordered-iteration"
    summary = (
        "iteration over a set/frozenset (or bare dict.popitem) has no "
        "defined order; sort, or keep an ordered container"
    )

    def _is_unordered(self, ctx, node: ast.expr) -> Optional[str]:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "a set literal/comprehension"
        if isinstance(node, ast.Call):
            target = ctx.resolve_call(node)
            if target in ("set", "frozenset"):
                return f"{target}(...)"
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _SET_ALGEBRA_METHODS
            ):
                return f".{node.func.attr}(...)"
        return None

    def check_iter(self, ctx, node: ast.AST, iter_node: ast.expr, add: AddFn) -> None:
        what = self._is_unordered(ctx, iter_node)
        if what is not None:
            add(
                self.code,
                iter_node,
                f"iterating over {what}: set order is arbitrary and can "
                "reshuffle message schedules between runs; wrap in sorted()",
            )

    def check_call(self, ctx, node: ast.Call, add: AddFn) -> None:
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "popitem"
            and not node.args
            and not node.keywords
        ):
            add(
                self.code,
                node,
                "bare .popitem() pops an implementation-ordered item; pop an "
                "explicit key (OrderedDict.popitem(last=...) is fine)",
            )


class IdBasedIdentityRule(Rule):
    """REP004: never derive ordering or hashes from ``id()``."""

    code = "REP004"
    name = "id-based-identity"
    summary = (
        "id() values change between runs and processes; order/hash by a "
        "stable node or message identifier"
    )

    def check_call(self, ctx, node: ast.Call, add: AddFn) -> None:
        if ctx.resolve_call(node) == "id":
            add(
                self.code,
                node,
                "id() is a memory address and differs between runs; use a "
                "stable identifier (node_id, event sequence number, ...)",
            )


class ScheduleMisuseRule(Rule):
    """REP005: events go through the engine's API, with sane delays."""

    code = "REP005"
    name = "schedule-misuse"
    summary = (
        "event scheduled with a statically-negative delay, or outside the "
        "engine (time.sleep/threading.Timer/asyncio); use Simulator.schedule"
    )

    @staticmethod
    def _static_negative(node: Optional[ast.expr]) -> bool:
        if (
            isinstance(node, ast.UnaryOp)
            and isinstance(node.op, ast.USub)
            and isinstance(node.operand, ast.Constant)
            and isinstance(node.operand.value, (int, float))
        ):
            return node.operand.value > 0
        return (
            isinstance(node, ast.Constant)
            and isinstance(node.value, (int, float))
            and node.value < 0
        )

    def check_call(self, ctx, node: ast.Call, add: AddFn) -> None:
        target = ctx.resolve_call(node)
        if target in _FOREIGN_SCHEDULERS:
            add(
                self.code,
                node,
                f"{target}() schedules/blocks outside the simulation engine; "
                "use Simulator.schedule(delay, callback, ...)",
            )
            return
        func = node.func
        attr = func.attr if isinstance(func, ast.Attribute) else None
        if attr in _FOREIGN_SCHEDULER_METHODS:
            add(
                self.code,
                node,
                f".{attr}() looks like an asyncio event-loop call; simulator "
                "events must go through Simulator.schedule",
            )
            return
        callee = attr or (func.id if isinstance(func, ast.Name) else None)
        if callee in ("schedule", "schedule_at"):
            delay = node.args[0] if node.args else None
            for keyword in node.keywords:
                if keyword.arg in ("delay", "time"):
                    delay = keyword.value
            if self._static_negative(delay):
                add(
                    self.code,
                    node,
                    f"{callee}() with a negative delay/time: the engine "
                    "raises (strict) or clamps to now, both are bugs upstream",
                )


class MutableDefaultRule(Rule):
    """REP006: no mutable default arguments."""

    code = "REP006"
    name = "mutable-default"
    summary = (
        "mutable default argument is shared across calls and leaks state "
        "between simulations; default to None and create inside"
    )

    def _is_mutable(self, ctx, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set,
                             ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            return ctx.resolve_call(node) in _MUTABLE_FACTORIES
        return False

    def check_function(self, ctx, node, add: AddFn) -> None:
        args = node.args
        defaults = list(args.defaults) + [d for d in args.kw_defaults if d]
        for default in defaults:
            if self._is_mutable(ctx, default):
                label = getattr(node, "name", "<lambda>")
                add(
                    self.code,
                    default,
                    f"mutable default in {label}(): evaluated once at def "
                    "time and shared across every call; use None",
                )


RULES: List[Rule] = [
    GlobalRandomRule(),
    WallClockRule(),
    UnorderedIterationRule(),
    IdBasedIdentityRule(),
    ScheduleMisuseRule(),
    MutableDefaultRule(),
]


def all_codes() -> List[str]:
    return [rule.code for rule in RULES]


def rules_by_code() -> Dict[str, Rule]:
    return {rule.code: rule for rule in RULES}
