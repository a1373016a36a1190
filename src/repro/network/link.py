"""Duplex overlay links.

Each link models a 10 Mbit/s Ethernet-like channel (the paper's assumption)
between two dispatchers:

* **Serialization**: a message of ``size_bits`` occupies the sender side of
  the link for ``size_bits / bandwidth_bps`` seconds; messages queue FIFO
  per direction (each direction has its own transmitter).
* **Loss**: each link owns a loss component -- ``None`` for a lossless
  link, or a :class:`LossModel` drawing from the network's ``"loss"``
  stream: :class:`BernoulliLoss` for the paper's i.i.d. ε, or a stateful
  model such as Gilbert--Elliott burst loss.  A dropped message
  still occupies the transmitter -- the bits are sent, they just arrive
  corrupted and are discarded, as on a real lossy channel.
* **Propagation**: a fixed ``propagation_delay`` is added after
  serialization completes.
* **Outage**: a link can be taken ``down`` by the reconfiguration engine;
  transmissions attempted while down are lost (and counted as drops).

Components, not variants
------------------------
There is one :meth:`Link.transmit` and one :meth:`Link._deliver`.  What
differs between links is data fixed at setup: the loss component.
Arrivals go straight to the simulator's ``schedule_call_at``.  Stateless
components are built once per network and shared by every link; a
lossless link draws nothing.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Optional, Protocol

from repro.network.message import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.network.network import Network

__all__ = ["BernoulliLoss", "Link", "LinkStats", "LossModel", "bernoulli"]


class LossModel(Protocol):
    """Decides, per transmission, whether the packet is lost.

    Implementations may keep per-link state (e.g. the Gilbert--Elliott
    channel state) but must derive all randomness from the ``rng`` handed
    in: the network's ``"loss"`` stream.
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
    """One direction of a link: its transmitter queue and receiver."""

    __slots__ = ("busy_until", "peer")

    def __init__(self, peer: int) -> None:
        self.busy_until = 0.0
        self.peer = peer


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
        # Loss component (None when lossless) and the stream it draws from.
        "_loss",
        "_rng",
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
        self._dirs = {node_a: _Direction(node_b), node_b: _Direction(node_a)}
        self._loss = loss_model if loss_model is not None else bernoulli(error_rate)
        self._rng = rng

    def set_error_rate(self, error_rate: float) -> None:
        """Change ε mid-run (tests use it to open and close loss windows).

        A link whose loss is a stateful model keeps it: ε only governs
        Bernoulli loss.
        """
        if not 0.0 <= error_rate <= 1.0:
            raise ValueError(f"error_rate must be in [0, 1], got {error_rate}")
        self.error_rate = error_rate
        if self._loss is None or isinstance(self._loss, BernoulliLoss):
            self._loss = bernoulli(error_rate)

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
        sim = network.sim
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
        now = sim._now  # raw clock slot; the ``now`` property costs a call
        if now > start:
            start = now
        done = start + serialization
        direction.busy_until = done
        stats.busy_time += serialization
        loss = self._loss
        if loss is not None and loss.should_drop(self._rng):
            stats.lost += 1
            observer.count_drop(kind)
            return True
        sim.schedule_call_at(
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
