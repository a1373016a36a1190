"""Serialize and rebuild messages crossing the shard seam.

Exports are produced at *send* time by :func:`seam_emit`, the emission
that cut links (``Link.mark_boundary``) and the out-of-band channel
(``Network.mark_oob_boundary``) use in place of the calendar.  The
sender is charged and the loss decided exactly as serial would; an
arrival at a node another shard owns becomes a plain tuple::

    (arrival_time, kind, from_node, to_node, payload, size_bits, sender)

The conservative-lookahead protocol guarantees every export's arrival
lies at or beyond the next synchronization horizon, so the receiving
shard can schedule it in its own calendar without ever rolling back.

Imports rebuild the receiving side of the serial hot path:

* Link-borne kinds schedule the receiving replica link's ``_deliver``
  at the arrival time -- exactly what the sending side's
  ``schedule_call_at`` would have done in one process, including the
  link-down and crashed-destination checks *at arrival* against the
  receiver's (replicated) network state.
* Out-of-band kinds schedule the network's ``_deliver_oob``.
* Events embedded in payloads (the EVENT envelope's ``(event, route)``
  pair and the bare OOB_EVENT retransmission) are rebuilt as fresh
  objects with their content re-interned in the *destination* shard's
  :class:`~repro.pubsub.pattern.PatternSpace`: content ids are per-shard
  dense ids (representation-only), and rebuilding -- rather than mutating
  the sender's object, which the in-process backend would still share --
  keeps both backends byte-identical.  Other payloads (gossip digests,
  subscription updates, out-of-band requests) are value-semantic and
  treated as read-only, so they cross the seam as-is.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from repro.network.link import Emit
from repro.network.message import Message, MessageKind
from repro.pubsub.event import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scenarios.builder import Simulation

__all__ = ["inject_imports", "seam_emit"]

_EVENT = MessageKind.EVENT
_OOB_REQUEST = MessageKind.OOB_REQUEST
_OOB_EVENT = MessageKind.OOB_EVENT


def _rebuild_event(event: Event, pattern_space) -> Event:
    """A fresh copy of ``event`` interned in the destination shard."""
    canonical, content_id = pattern_space.intern_content(event.patterns)
    return Event(
        event.event_id,
        canonical,
        event.pattern_seqs,
        event.publish_time,
        content_id,
    )


def seam_emit(is_local: Sequence[bool], outbox: list, schedule: Emit) -> Emit:
    """The emission of a shard's cut links and out-of-band channel.

    An arrival at a locally-owned node enters the local calendar through
    ``schedule``, as in serial; an arrival at a node another shard owns is
    appended to ``outbox`` for the runner to route.
    """
    append = outbox.append

    def emit(arrival, deliver, message, from_node, to_node) -> None:
        if is_local[to_node]:
            schedule(arrival, deliver, message, from_node, to_node)
        else:
            append((
                arrival,
                message.kind,
                from_node,
                to_node,
                message.payload,
                message.size_bits,
                message.sender,
            ))

    return emit


def inject_imports(simulation: "Simulation", imports: Iterable[tuple]) -> None:
    """Schedule one round's inbound seam messages into a shard's calendar.

    ``imports`` must already be in deterministic global order -- the
    runner sorts by ``(arrival_time, source_shard, export_position)`` --
    because equal-time calendar entries fire in insertion order.
    """
    sim = simulation.sim
    network = simulation.network
    pattern_space = simulation.pattern_space
    deliver_oob = network._deliver_oob
    link_of = network.link
    schedule = sim.schedule_call_at
    for arrival, kind, from_node, to_node, payload, size_bits, sender in imports:
        if kind is _EVENT:
            event, route = payload
            payload = (_rebuild_event(event, pattern_space), route)
        elif kind is _OOB_EVENT:
            payload = _rebuild_event(payload, pattern_space)
        message = Message(kind, payload, sender, size_bits)
        if kind is _OOB_REQUEST or kind is _OOB_EVENT:
            schedule(arrival, deliver_oob, message, from_node, to_node)
        else:
            # Reconfiguration is rejected for sharded configs, so the cut
            # link set is static and the replica link always exists.
            schedule(
                arrival,
                link_of(from_node, to_node)._deliver,
                message,
                from_node,
                to_node,
            )
