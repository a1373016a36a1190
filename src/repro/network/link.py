"""Duplex overlay links.

Each link models a 10 Mbit/s Ethernet-like channel (the paper's assumption)
between two dispatchers:

* **Serialization**: a message of ``size_bits`` occupies the sender side of
  the link for ``size_bits / bandwidth_bps`` seconds; messages queue FIFO
  per direction (each direction has its own transmitter).
* **Loss**: each direction owns a loss component -- ``None`` for a lossless
  direction, or a :class:`LossModel` together with the random stream it
  draws from: :class:`BernoulliLoss` for the paper's i.i.d. ε, or a
  stateful model such as Gilbert--Elliott burst loss.  A dropped message
  still occupies the transmitter -- the bits are sent, they just arrive
  corrupted and are discarded, as on a real lossy channel.
* **Propagation**: a fixed ``propagation_delay`` is added after
  serialization completes.
* **Outage**: a link can be taken ``down`` by the reconfiguration engine;
  transmissions attempted while down are lost (and counted as drops).

Components, not variants
------------------------
There is one :meth:`Link.transmit` and one :meth:`Link._deliver`.  What
differs between links is data fixed at setup: each direction's loss
component and stream, and the link's emission -- the simulator's
``schedule_call_at``, or the seam export of a sharded run
(:meth:`Link.mark_boundary`).  Stateless components are built once per
network and shared by every link; a lossless direction draws nothing.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable, Optional, Protocol

from repro.network.message import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.network.network import Network

__all__ = ["BernoulliLoss", "Link", "LinkStats", "LossModel", "bernoulli"]

#: ``emit(arrival_time, deliver, message, from_node, to_node)``: hands an
#: arrival to the calendar (``Simulator.schedule_call_at``) or to a seam.
Emit = Callable[..., None]


class LossModel(Protocol):
    """Decides, per transmission, whether the packet is lost.

    Implementations may keep per-link state (e.g. the Gilbert--Elliott
    channel state) but must derive all randomness from the ``rng`` handed
    in: the shared ``"loss"`` stream, or a link direction's own stream
    under the per-edge discipline.
    """

    def should_drop(self, rng: random.Random) -> bool:
        """Advance the model one transmission; True means drop it."""
        ...


class BernoulliLoss:
    """The paper's i.i.d. loss model: drop with fixed probability ε.

    Stateless, so one instance serves every link of a network.  Consumes
    no randomness when ε == 0.
    """

    __slots__ = ("error_rate",)

    def __init__(self, error_rate: float) -> None:
        if not 0.0 <= error_rate <= 1.0:
            raise ValueError(f"error_rate must be in [0, 1], got {error_rate}")
        self.error_rate = error_rate

    def should_drop(self, rng: random.Random) -> bool:
        return self.error_rate > 0.0 and rng.random() < self.error_rate

    def __repr__(self) -> str:
        return f"BernoulliLoss(error_rate={self.error_rate})"


def bernoulli(error_rate: float) -> Optional[BernoulliLoss]:
    """The loss component for ε: ``None`` (no draw at all) when lossless."""
    return BernoulliLoss(error_rate) if error_rate > 0.0 else None


class LinkStats:
    """Per-link transmission counters (both directions pooled)."""

    __slots__ = ("sent", "delivered", "lost", "dropped_down", "busy_time")

    def __init__(self) -> None:
        self.sent = 0
        self.delivered = 0
        self.lost = 0
        self.dropped_down = 0
        self.busy_time = 0.0

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` the link spent transmitting (one direction
        at full duty counts as 0.5 because the link is duplex)."""
        if elapsed <= 0.0:
            return 0.0
        return min(1.0, self.busy_time / (2.0 * elapsed))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<LinkStats sent={self.sent} delivered={self.delivered} "
            f"lost={self.lost} down-drops={self.dropped_down}>"
        )


class _Direction:
    """One direction of a link: its transmitter, receiver and loss."""

    __slots__ = ("busy_until", "peer", "loss", "rng")

    def __init__(
        self, peer: int, loss: Optional[LossModel], rng: random.Random
    ) -> None:
        self.busy_until = 0.0
        self.peer = peer
        self.loss = loss
        self.rng = rng


class Link:
    """A duplex link between two nodes of the overlay tree.

    Parameters
    ----------
    network:
        Owning network (provides the simulator, the receivers and the
        traffic observer).
    node_a, node_b:
        Endpoint node ids.
    bandwidth_bps:
        Channel rate; default 10 Mbit/s.
    propagation_delay:
        One-way propagation latency in seconds.
    error_rate:
        Per-transmission Bernoulli loss probability (ε).
    rng:
        Random stream used for loss draws.
    loss_model:
        Loss component shared by both directions; defaults to
        ``BernoulliLoss(error_rate)`` (``None`` when ε = 0).  A stateful
        model (e.g. Gilbert--Elliott burst loss) replaces the ε draw.
    dir_rngs:
        Per-*direction* loss streams keyed by sender id (the "per-edge"
        loss discipline): when set, loss draws consume the sender
        direction's private stream instead of the shared ``rng``, making
        each direction's drop sequence a function of its own traffic only.
        Required by sharded execution (repro.shard), where the two
        directions of a cut link run in different workers.
    dir_models:
        Per-direction loss models keyed by sender id; accompanies
        ``dir_rngs`` under Gilbert--Elliott plans (burst state is per
        direction for the same reason the stream is).
    """

    __slots__ = (
        "network",
        "node_a",
        "node_b",
        "bandwidth_bps",
        "propagation_delay",
        "error_rate",
        "up",
        "stats",
        # Sender id -> _Direction.
        "_dirs",
        # Where arrivals go: the calendar, or a seam on a boundary link.
        "_emit",
    )

    def __init__(
        self,
        network: "Network",
        node_a: int,
        node_b: int,
        bandwidth_bps: float,
        propagation_delay: float,
        error_rate: float,
        rng: random.Random,
        loss_model: Optional[LossModel] = None,
        dir_rngs: Optional[dict] = None,
        dir_models: Optional[dict] = None,
    ) -> None:
        if node_a == node_b:
            raise ValueError(f"self-link at node {node_a}")
        if not 0.0 <= error_rate <= 1.0:
            raise ValueError(f"error_rate must be in [0, 1], got {error_rate}")
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_bps}")
        self.network = network
        self.node_a = node_a
        self.node_b = node_b
        self.bandwidth_bps = bandwidth_bps
        self.propagation_delay = propagation_delay
        self.error_rate = error_rate
        self.up = True
        self.stats = LinkStats()
        if dir_models is None:
            shared = loss_model if loss_model is not None else bernoulli(error_rate)
            dir_models = {node_a: shared, node_b: shared}
        if dir_rngs is None:
            dir_rngs = {node_a: rng, node_b: rng}
        self._dirs = {
            node_a: _Direction(node_b, dir_models[node_a], dir_rngs[node_a]),
            node_b: _Direction(node_a, dir_models[node_b], dir_rngs[node_b]),
        }
        self._emit: Emit = network._schedule_at

    def mark_boundary(self, emit: Emit) -> None:
        """Turn this link into a shard-boundary link.

        Transmissions keep the exact serial semantics (counters, busy
        queue, loss draw); only the arrival goes to ``emit`` instead of
        the local calendar.  The two directions of a cut link run in
        different workers, so a lossy link whose directions share one
        stream cannot reproduce the serial draws: sharded runs with loss
        require ``loss_discipline='per-edge'``.
        """
        a, b = self._dirs[self.node_a], self._dirs[self.node_b]
        if (a.loss is not None or b.loss is not None) and a.rng is b.rng:
            raise ValueError(
                "boundary link with loss needs per-direction streams "
                "(loss_discipline='per-edge')"
            )
        self._emit = emit

    def set_error_rate(self, error_rate: float) -> None:
        """Change ε mid-run (tests use it to open and close loss windows).

        Directions whose loss is a stateful model keep it: ε only governs
        the Bernoulli directions.
        """
        if not 0.0 <= error_rate <= 1.0:
            raise ValueError(f"error_rate must be in [0, 1], got {error_rate}")
        self.error_rate = error_rate
        loss = bernoulli(error_rate)
        for direction in self._dirs.values():
            if direction.loss is None or isinstance(direction.loss, BernoulliLoss):
                direction.loss = loss

    # ------------------------------------------------------------------
    def other_end(self, node: int) -> int:
        """The id of the endpoint opposite to ``node``."""
        if node == self.node_a:
            return self.node_b
        if node == self.node_b:
            return self.node_a
        raise ValueError(f"node {node} is not an endpoint of {self!r}")

    def endpoints(self) -> tuple[int, int]:
        return (self.node_a, self.node_b)

    # ------------------------------------------------------------------
    def transmit(self, from_node: int, message: Message) -> bool:
        """Send ``message`` from ``from_node`` to the opposite endpoint.

        Returns ``True`` if the message was *enqueued for transmission*
        (the loss draw may still drop it), ``False`` if the link is down.
        The caller is charged for the send in either case -- a dispatcher
        cannot know the link state before trying.
        """
        network = self.network
        observer = network.observer
        stats = self.stats
        kind = message.kind
        stats.sent += 1
        observer.count_send(kind, from_node)
        if not self.up:
            stats.dropped_down += 1
            observer.count_drop(kind)
            return False
        direction = self._dirs[from_node]
        serialization = message.size_bits / self.bandwidth_bps
        start = direction.busy_until
        now = network.sim._now  # raw clock slot; the ``now`` property costs a call
        if now > start:
            start = now
        done = start + serialization
        direction.busy_until = done
        stats.busy_time += serialization
        loss = direction.loss
        if loss is not None and loss.should_drop(direction.rng):
            stats.lost += 1
            observer.count_drop(kind)
            return True
        self._emit(
            done + self.propagation_delay,
            self._deliver,
            message,
            from_node,
            direction.peer,
        )
        return True

    def _deliver(self, message: Message, from_node: int, to_node: int) -> None:
        """Hand an arrived message to its receiver.

        A link that went down while the message was in flight loses it:
        the physical channel is gone.  A destination that crashed (or
        vanished) meanwhile makes it a counted drop, never a KeyError.
        """
        network = self.network
        if not self.up:
            self.stats.dropped_down += 1
            network.observer.count_drop(message.kind)
            return
        node = network._receivers.get(to_node)
        if node is None:
            network.observer.count_drop(message.kind)
            network.down_drops += 1
            return
        self.stats.delivered += 1
        network.observer.count_deliver(message.kind)
        node.receive(message, from_node)

    def set_up(self, up: bool) -> None:
        """Raise or lower the link (reconfiguration engine hook)."""
        self.up = up

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "up" if self.up else "down"
        return f"<Link {self.node_a}<->{self.node_b} {state}>"
