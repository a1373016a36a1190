"""The network: nodes, live links, and the out-of-band channel.

The :class:`Network` is the glue between the topology layer (which decides
*which* links exist) and the dispatchers (which decide *what* to send).  It
also hosts the out-of-band unicast channel used by the recovery algorithms
for requests and retransmissions: a direct, connectionless path between any
two dispatchers, independent of the tree, with its own latency and loss.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    Optional,
    Protocol,
    Set,
    Tuple,
)

from repro.network.link import Link, LossModel, bernoulli
from repro.network.message import Message, MessageKind
from repro.network.node import Node
from repro.sim.engine import Simulator

__all__ = ["Network", "NetworkConfig", "TrafficObserver"]


class TrafficObserver(Protocol):
    """Hook interface for message accounting (implemented by metrics)."""

    def count_send(self, kind: MessageKind, node_id: int) -> None: ...

    def count_drop(self, kind: MessageKind) -> None: ...

    def count_deliver(self, kind: MessageKind) -> None: ...


class _NullObserver:
    """Default observer: counts nothing."""

    def count_send(self, kind: MessageKind, node_id: int) -> None:
        pass

    def count_drop(self, kind: MessageKind) -> None:
        pass

    def count_deliver(self, kind: MessageKind) -> None:
        pass


@dataclass(frozen=True, slots=True)
class NetworkConfig:
    """Physical parameters of the dispatching network.

    Defaults follow the paper: 10 Mbit/s links; the out-of-band channel is
    a direct UDP-like path (1 ms latency by default) whose reliability is
    configurable (the paper only requires it to exist, "not necessarily
    reliable").
    """

    bandwidth_bps: float = 10_000_000.0
    propagation_delay: float = 0.0001
    error_rate: float = 0.1
    oob_latency: float = 0.001
    oob_error_rate: float = 0.0


class Network:
    """Nodes plus links plus the out-of-band channel.

    Parameters
    ----------
    sim:
        The simulation engine.
    config:
        Physical parameters (bandwidth, delays, error rates).
    loss_rng:
        Random stream for link-loss and out-of-band-loss draws.
    observer:
        Optional traffic observer for overhead accounting.
    loss_model_factory:
        Optional ``(node_a, node_b) -> LossModel`` called once per link;
        installs a stateful loss model (e.g. Gilbert--Elliott) in place of
        the shared Bernoulli ``error_rate`` component.
    oob_loss_model:
        Optional stateful loss model for the out-of-band channel, replacing
        the Bernoulli ``oob_error_rate`` component.
    """

    def __init__(
        self,
        sim: Simulator,
        config: NetworkConfig,
        loss_rng: random.Random,
        observer: Optional[TrafficObserver] = None,
        loss_model_factory: Optional[Callable[[int, int], LossModel]] = None,
        oob_loss_model: Optional[LossModel] = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self._loss_rng = loss_rng
        self.observer: TrafficObserver = observer or _NullObserver()
        self._loss_model_factory = loss_model_factory
        self._oob_loss_model = oob_loss_model
        self._nodes: Dict[int, Node] = {}
        # Nodes currently able to receive: ``_nodes`` minus crashed nodes.
        # Delivery does a single ``.get`` here, so a down (or vanished)
        # destination costs nothing extra on the healthy path.
        self._receivers: Dict[int, Node] = {}
        self._down: Set[int] = set()
        #: Messages dropped because their destination was down or gone.
        self.down_drops = 0
        # adjacency: node id -> {neighbor id -> Link}
        self._adjacency: Dict[int, Dict[int, Link]] = {}
        self._links: Dict[Tuple[int, int], Link] = {}
        # The Bernoulli loss of ε, built once and shared by every link.
        self._link_loss = bernoulli(config.error_rate)
        self._oob_loss: Optional[LossModel] = (
            oob_loss_model
            if oob_loss_model is not None
            else bernoulli(config.oob_error_rate)
        )

    # ------------------------------------------------------------------
    # Node / link management
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> None:
        if node.node_id in self._nodes:
            raise ValueError(f"duplicate node id {node.node_id}")
        self._nodes[node.node_id] = node
        self._receivers[node.node_id] = node
        self._adjacency[node.node_id] = {}

    def node(self, node_id: int) -> Node:
        return self._nodes[node_id]

    def set_node_down(self, node_id: int, down: bool) -> None:
        """Crash or restart a node (fault-injector hook).

        A down node keeps its links and routing entries -- the rest of the
        tree still forwards toward it -- but every message addressed to it
        is discarded on arrival as a counted drop, like frames sent to a
        powered-off host.
        """
        if node_id not in self._nodes:
            raise KeyError(f"unknown node {node_id}")
        if down:
            self._down.add(node_id)
            self._receivers.pop(node_id, None)
        else:
            self._down.discard(node_id)
            self._receivers[node_id] = self._nodes[node_id]

    def is_down(self, node_id: int) -> bool:
        return node_id in self._down

    def down_nodes(self) -> Set[int]:
        """Ids of currently-crashed nodes (copy; sorted iteration safe)."""
        return set(self._down)

    def nodes(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    def node_ids(self) -> Iterator[int]:
        return iter(self._nodes)

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @staticmethod
    def _key(a: int, b: int) -> Tuple[int, int]:
        return (a, b) if a < b else (b, a)

    def add_link(self, a: int, b: int) -> Link:
        """Create (and raise) a link between nodes ``a`` and ``b``."""
        if a not in self._nodes or b not in self._nodes:
            raise KeyError(f"both endpoints must exist: {a}, {b}")
        key = self._key(a, b)
        if key in self._links:
            raise ValueError(f"link {key} already exists")
        factory = self._loss_model_factory
        loss_model = self._link_loss if factory is None else factory(a, b)
        link = Link(
            self,
            a,
            b,
            bandwidth_bps=self.config.bandwidth_bps,
            propagation_delay=self.config.propagation_delay,
            error_rate=self.config.error_rate,
            rng=self._loss_rng,
            loss_model=loss_model,
        )
        self._links[key] = link
        self._adjacency[a][b] = link
        self._adjacency[b][a] = link
        return link

    def remove_link(self, a: int, b: int) -> Link:
        """Tear down the link between ``a`` and ``b`` and return it.

        In-flight messages on the link are lost (the link marks itself down
        before removal so pending deliveries are discarded).
        """
        key = self._key(a, b)
        link = self._links.pop(key, None)
        if link is None:
            raise KeyError(f"no link between {a} and {b}")
        link.set_up(False)
        del self._adjacency[a][b]
        del self._adjacency[b][a]
        return link

    def has_link(self, a: int, b: int) -> bool:
        return self._key(a, b) in self._links

    def link(self, a: int, b: int) -> Link:
        return self._links[self._key(a, b)]

    def links(self) -> Iterable[Link]:
        return self._links.values()

    @property
    def link_count(self) -> int:
        return len(self._links)

    def neighbors(self, node_id: int) -> list[int]:
        """Current overlay neighbors of ``node_id`` (sorted for determinism)."""
        return sorted(self._adjacency[node_id])

    def degree(self, node_id: int) -> int:
        return len(self._adjacency[node_id])

    def edges(self) -> list[Tuple[int, int]]:
        """All live links as sorted (a, b) pairs; deterministic order."""
        return sorted(self._links)

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def send(self, from_node: int, to_node: int, message: Message) -> bool:
        """Send over the overlay link between adjacent nodes.

        Returns ``False`` when there is no live link (e.g. it broke while
        the routing table still points at it) -- the message is silently
        lost, exactly like a frame sent onto a dead wire.
        """
        link = self._adjacency[from_node].get(to_node)
        if link is None:
            self.observer.count_send(message.kind, from_node)
            self.observer.count_drop(message.kind)
            return False
        return link.transmit(from_node, message)

    def set_oob_error_rate(self, rate: float) -> None:
        """Change the out-of-band Bernoulli loss rate mid-run.

        A stateful out-of-band loss model, when installed, keeps deciding
        on its own; only the config changes then.
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"oob_error_rate must be in [0, 1], got {rate}")
        self.config = replace(self.config, oob_error_rate=rate)
        if self._oob_loss_model is None:
            self._oob_loss = bernoulli(rate)

    def send_oob(self, from_node: int, to_node: int, message: Message) -> bool:
        """Send over the out-of-band unicast channel (direct, UDP-like).

        The channel is independent of the tree: constant latency, optional
        loss, no queueing (recovery traffic is small compared to the
        10 Mbit/s links, and the paper treats this path as out of band).
        """
        observer = self.observer
        kind = message.kind
        observer.count_send(kind, from_node)
        if to_node not in self._nodes:
            # Unknown destination (e.g. stale peer knowledge): counted drop,
            # never an exception -- UDP to a vanished host just disappears.
            observer.count_drop(kind)
            self.down_drops += 1
            return False
        loss = self._oob_loss
        if loss is not None and loss.should_drop(self._loss_rng):
            observer.count_drop(kind)
            return True
        sim = self.sim
        sim.schedule_call_at(
            sim._now + self.config.oob_latency,
            self._deliver_oob,
            message,
            from_node,
            to_node,
        )
        return True

    def _deliver_oob(self, message: Message, from_node: int, to_node: int) -> None:
        node = self._receivers.get(to_node)
        if node is None:
            # Destination crashed while the message was in flight.
            self.observer.count_drop(message.kind)
            self.down_drops += 1
            return
        self.observer.count_deliver(message.kind)
        node.receive_oob(message, from_node)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Network nodes={len(self._nodes)} links={len(self._links)}>"
