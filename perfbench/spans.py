"""Span tracing of the simulator's layers, from outside the program.

:func:`install` wraps the public entry points of each layer (class
attributes, plus the one module-level ``build_tree`` reference the
builder calls) with a recorder.  Several entry points are bound per
instance when a component is constructed (``Link.transmit``,
``Dispatcher.receive``, ``Network.send_oob``, timer callbacks), so
:func:`install` must run before ``Simulation(config)``.

A span is (name, parent, start, end); spans of one process belong to one
run.  They are kept in flat arrays -- about 24 bytes a span -- and
analysed once the run is over: a span's self time is its duration minus
the durations of its direct children, a layer's self time is the sum over
its spans, and the self time of the benchmark's own root spans is the
part of the run no layer accounts for (``unattributed``).
"""

from __future__ import annotations

import inspect
import time
from array import array
from contextlib import contextmanager
from typing import Dict, Iterable, List, Tuple

#: Layer -> [(module, class name or None for a module function, [names])].
#: ``_transmit_*``/``_deliver_*`` etc. are every variant the constructors
#: may bind; recovery entry points are wrapped on every class of the
#: algorithm registry that defines them.
ENTRY_POINTS: Dict[str, List[Tuple[str, object, Tuple[str, ...]]]] = {
    "sim": [
        ("repro.sim.engine", "Simulator",
         ("run", "schedule", "schedule_at", "schedule_call", "schedule_call_at")),
    ],
    "network": [
        ("repro.network.link", "Link",
         ("_transmit_lossless", "_transmit_bernoulli", "_transmit_model",
          "_transmit_bernoulli_per_edge", "_transmit_model_per_edge",
          "_transmit_boundary_lossless", "_transmit_boundary_bernoulli",
          "_transmit_boundary_model", "_deliver_fast", "_deliver_checked")),
        ("repro.network.network", "Network",
         ("_send_oob_checked", "_send_oob_bernoulli", "_send_oob_lossless",
          "_deliver_oob_checked", "_deliver_oob_fast")),
    ],
    "pubsub": [
        ("repro.pubsub.dispatcher", "Dispatcher",
         ("_receive_plain", "_receive_tracked", "_receive_oob_plain",
          "_receive_oob_tracked", "publish", "receive_recovered_event")),
        ("repro.pubsub.system", "PubSubSystem",
         ("apply_subscriptions", "rebuild_routes")),
    ],
    "recovery": [
        ("repro.recovery", "*ALGORITHMS",
         ("gossip_round", "handle_gossip", "handle_oob_request",
          "on_event_received", "on_event_published")),
    ],
    "metrics": [
        ("repro.metrics.delivery", "DeliveryTracker",
         ("on_publish", "on_deliver", "stats", "time_series")),
        ("repro.metrics.counters", "MessageCounters",
         ("count_send", "count_drop", "count_deliver")),
    ],
    "workload": [
        ("repro.workload.publishers", "PublisherProcess", ("_publish_one",)),
        ("repro.workload.publishers", "AggregatePublisherPool", ("_publish_one",)),
        ("repro.workload.publishers", "FilteredAggregatePublisherPool",
         ("_publish_one",)),
    ],
    "topology": [
        ("repro.scenarios.builder", None, ("build_tree",)),
        ("repro.topology.tree", "Tree",
         ("diameter", "average_path_length", "approx_average_path_length")),
        ("repro.topology.reconfiguration", "ReconfigurationEngine",
         ("_break_random_link", "_repair")),
    ],
    "faults": [
        ("repro.faults.injector", "FaultInjector",
         ("_crash", "_restart", "_churn_tick")),
    ],
    "scenarios": [
        ("repro.scenarios.builder", "Simulation", ("__init__", "collect_result")),
    ],
    "campaign": [
        ("repro.campaign.journal", "CampaignJournal", ("load", "record", "compact")),
    ],
}

#: Prefix of the spans the benchmark itself opens around a run.
ROOT_PREFIX = "bench."


class Recorder:
    """In-memory span store for one traced run."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def __len__(self) -> int:
        return len(self.name)

    def wrap(self, fn, name: str):
        """``fn`` recording one span per call under ``name``."""
        if inspect.isgeneratorfunction(fn):
            raise TypeError(f"{name} is a generator; a span would not cover it")
        name_id = self.name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            begin = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                starts[index] = begin
                stack.pop()

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        traced.span_name = name
        return traced

    @contextmanager
    def span(self, name: str):
        """A benchmark-owned span (``name`` should start with ``bench.``)."""
        index = len(self.name)
        self.name.append(self.name_id(name))
        self.parent.append(self._stack[-1])
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(index)
        try:
            yield
        finally:
            self.end[index] = time.perf_counter()
            self._stack.pop()

    def dump(self, path: str) -> None:
        """Write the raw spans: a JSON header line, then the four arrays."""
        import json

        with open(path, "wb") as handle:
            header = {"names": self.names, "count": len(self), "arrays": [
                "name:i", "parent:i", "start:d", "end:d"]}
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self.name, self.parent, self.start, self.end):
                column.tofile(handle)


def _targets(module_name: str, owner) -> Iterable[Tuple[object, str]]:
    import importlib

    module = importlib.import_module(module_name)
    if owner is None:
        yield module, ""
    elif owner == "*ALGORITHMS":
        seen = set()
        for algorithm in module.ALGORITHMS.values():
            for cls in algorithm.__mro__:
                if cls is object or cls in seen:
                    continue
                seen.add(cls)
                yield cls, cls.__name__
    else:
        cls = getattr(module, owner)
        yield cls, cls.__name__


def install(recorder: Recorder, layers: Iterable[str]) -> List[str]:
    """Wrap every entry point of ``layers``.

    Returns the entry points that no longer exist in the tree, so that a
    renamed method shows up in the report instead of silently moving its
    time into its caller's span.
    """
    missing = []
    for layer in layers:
        for module_name, owner, attributes in ENTRY_POINTS[layer]:
            targets = list(_targets(module_name, owner))
            for attribute in attributes:
                found = False
                for target, prefix in targets:
                    if isinstance(target, type):
                        fn = target.__dict__.get(attribute)  # wrap where defined
                    else:
                        fn = getattr(target, attribute, None)
                    if fn is None:
                        continue
                    found = True
                    if hasattr(fn, "span_name"):
                        continue  # one function listed under two classes
                    if not inspect.isfunction(fn):
                        raise TypeError(f"{prefix}.{attribute} is not a plain function")
                    name = f"{layer}:{prefix + '.' if prefix else ''}{attribute}"
                    setattr(target, attribute, recorder.wrap(fn, name))
                if not found:
                    missing.append(f"{module_name}.{owner or ''}.{attribute}")
    return missing


def layer_of(name: str) -> str:
    return "bench" if name.startswith(ROOT_PREFIX) else name.split(":", 1)[0]


class Analysis:
    """Self and inclusive times computed from a :class:`Recorder`."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        names, parents = recorder.name, recorder.parent
        starts, ends = recorder.start, recorder.end
        count = len(names)
        n_names = len(recorder.names)
        child_time = array("d", bytes(8 * count))
        problems = []
        for index in range(count):
            begin, finish = starts[index], ends[index]
            if not finish >= begin > 0.0:
                problems.append(f"span {index} ({recorder.names[names[index]]}) not closed")
                continue
            parent = parents[index]
            if parent >= 0:
                if begin < starts[parent] or finish > ends[parent]:
                    problems.append(f"span {index} escapes its parent {parent}")
                child_time[parent] += finish - begin
        calls = [0] * n_names
        inclusive = [0.0] * n_names
        self_time = [0.0] * n_names
        for index in range(count):
            name_id = names[index]
            duration = ends[index] - starts[index]
            calls[name_id] += 1
            inclusive[name_id] += duration
            self_time[name_id] += duration - child_time[index]
        root_total = sum(
            ends[i] - starts[i] for i in range(count) if parents[i] < 0
        )
        self.problems = problems
        self.root_total = root_total
        self.by_name = {
            recorder.names[i]: {
                "calls": calls[i],
                "inclusive_s": inclusive[i],
                "self_s": self_time[i],
            }
            for i in range(n_names)
        }
        layers: Dict[str, float] = {}
        for name, row in self.by_name.items():
            layer = layer_of(name)
            layers[layer] = layers.get(layer, 0.0) + row["self_s"]
        self.layer_self = layers

    @property
    def unattributed(self) -> float:
        return self.layer_self.get("bench", 0.0)

    def attribution_error(self) -> float:
        """|Σ layer self + unattributed - root wall| (0 up to rounding)."""
        return abs(sum(self.layer_self.values()) - self.root_total)

    def calls(self, names: Iterable[str]) -> int:
        return sum(self.by_name.get(name, {}).get("calls", 0) for name in names)

    def outermost(self, names: Iterable[str], under: str = "") -> float:
        """Inclusive time of the spans named in ``names`` that have no
        ancestor in ``names``; only those inside a span ``under`` if given."""
        ids = self.recorder._name_ids
        wanted = {ids[n] for n in names if n in ids}
        under_id = ids.get(under, -2) if under else None
        names_arr, parents = self.recorder.name, self.recorder.parent
        starts, ends = self.recorder.start, self.recorder.end
        total = 0.0
        for index in range(len(names_arr)) if wanted else ():
            if names_arr[index] not in wanted:
                continue
            ancestor, inside = parents[index], under_id is None
            while ancestor >= 0:
                name_id = names_arr[ancestor]
                if name_id in wanted:
                    break
                inside = inside or name_id == under_id
                ancestor = parents[ancestor]
            else:
                if inside:
                    total += ends[index] - starts[index]
        return total

    def summary(self) -> Dict[str, Dict[str, float]]:
        return {
            name: dict(row, layer=layer_of(name))
            for name, row in sorted(self.by_name.items())
        }
