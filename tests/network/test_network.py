"""Tests for the network container and the out-of-band channel."""

from __future__ import annotations

import random

import pytest

from repro.metrics.counters import MessageCounters
from repro.network.message import Message, MessageKind
from repro.network.network import Network, NetworkConfig
from repro.sim.engine import Simulator
from tests.network.test_link import Recorder, event_message


def make_network(sim, n=3, config=None, seed=0, observer=None):
    network = Network(
        sim, config or NetworkConfig(error_rate=0.0), random.Random(seed), observer
    )
    nodes = [Recorder(i, sim) for i in range(n)]
    for node in nodes:
        network.add_node(node)
    return network, nodes


class TestTopologyManagement:
    def test_duplicate_node_rejected(self):
        sim = Simulator()
        network, nodes = make_network(sim)
        with pytest.raises(ValueError):
            network.add_node(Recorder(0, sim))

    def test_neighbors_sorted_and_live(self):
        sim = Simulator()
        network, nodes = make_network(sim, n=4)
        network.add_link(2, 0)
        network.add_link(0, 3)
        network.add_link(0, 1)
        assert network.neighbors(0) == [1, 2, 3]
        network.remove_link(0, 2)
        assert network.neighbors(0) == [1, 3]

    def test_edges_deterministic(self):
        sim = Simulator()
        network, nodes = make_network(sim, n=4)
        network.add_link(3, 1)
        network.add_link(0, 2)
        assert network.edges() == [(0, 2), (1, 3)]

    def test_degree(self):
        sim = Simulator()
        network, nodes = make_network(sim, n=3)
        network.add_link(0, 1)
        network.add_link(0, 2)
        assert network.degree(0) == 2
        assert network.degree(1) == 1


class TestOutOfBand:
    def test_oob_delivers_with_latency(self):
        sim = Simulator()
        config = NetworkConfig(error_rate=0.0, oob_latency=0.005)
        network, nodes = make_network(sim, config=config)
        # No link needed: the channel is out of band w.r.t. the tree.
        network.send_oob(0, 2, Message(MessageKind.OOB_EVENT, "e", 0))
        sim.run()
        assert nodes[2].received_oob[0][0] == pytest.approx(0.005)
        assert nodes[2].received_oob[0][2] == 0

    def test_oob_loss(self):
        sim = Simulator()
        config = NetworkConfig(error_rate=0.0, oob_error_rate=1.0)
        network, nodes = make_network(sim, config=config)
        network.send_oob(0, 1, Message(MessageKind.OOB_EVENT, "e", 0))
        sim.run()
        assert nodes[1].received_oob == []

    def test_oob_unknown_destination_is_counted_drop(self):
        """UDP to a vanished host just disappears: counted drop (send +
        drop + down_drops), never a KeyError."""
        sim = Simulator()
        counters = MessageCounters(node_count=3)
        network, nodes = make_network(sim, observer=counters)
        assert network.send_oob(0, 99, Message(MessageKind.OOB_EVENT, "e", 0)) is False
        sim.run()
        assert counters.sent(MessageKind.OOB_EVENT) == 1
        assert counters.dropped(MessageKind.OOB_EVENT) == 1
        assert network.down_drops == 1

    def test_oob_statistical_loss(self):
        sim = Simulator()
        config = NetworkConfig(error_rate=0.0, oob_error_rate=0.25)
        network, nodes = make_network(sim, config=config, seed=5)
        for _ in range(2000):
            network.send_oob(0, 1, Message(MessageKind.OOB_EVENT, "e", 0))
        sim.run()
        rate = 1 - len(nodes[1].received_oob) / 2000
        assert rate == pytest.approx(0.25, abs=0.04)


class TestCrashedNodeDelivery:
    """In-flight traffic to a node that crashes before delivery becomes a
    counted drop (``down_drops``) -- never an exception, never a receive."""

    def test_link_message_in_flight_when_node_crashes(self):
        sim = Simulator()
        counters = MessageCounters(node_count=3)
        network, nodes = make_network(sim, observer=counters)
        network.add_link(0, 1)
        assert network.send(0, 1, event_message()) is True
        network.set_node_down(1, True)  # crash while the frame is on the wire
        sim.run()
        assert nodes[1].received == []
        assert counters.dropped(MessageKind.EVENT) == 1
        assert counters.delivered(MessageKind.EVENT) == 0
        assert network.down_drops == 1

    def test_oob_message_in_flight_when_node_crashes(self):
        sim = Simulator()
        counters = MessageCounters(node_count=3)
        network, nodes = make_network(sim, observer=counters)
        assert network.send_oob(0, 2, Message(MessageKind.OOB_EVENT, "e", 0)) is True
        network.set_node_down(2, True)
        sim.run()
        assert nodes[2].received_oob == []
        assert counters.dropped(MessageKind.OOB_EVENT) == 1
        assert network.down_drops == 1

    def test_restart_reenables_delivery(self):
        sim = Simulator()
        network, nodes = make_network(sim)
        network.add_link(0, 1)
        network.set_node_down(1, True)
        network.send(0, 1, event_message())
        sim.run()
        assert nodes[1].received == []
        network.set_node_down(1, False)
        network.send(0, 1, event_message())
        sim.run()
        assert len(nodes[1].received) == 1
        assert network.down_drops == 1  # only the crash-epoch frame

    def test_set_node_down_rejects_unknown_node(self):
        sim = Simulator()
        network, nodes = make_network(sim)
        with pytest.raises(KeyError):
            network.set_node_down(99, True)


class TestTrafficObserver:
    def test_counters_observe_sends_drops_deliveries(self):
        sim = Simulator()
        counters = MessageCounters(node_count=3)
        network, nodes = make_network(sim, observer=counters)
        network.add_link(0, 1)
        network.send(0, 1, event_message())
        network.send(0, 1, Message(MessageKind.GOSSIP, "g", 0))
        network.send_oob(0, 2, Message(MessageKind.OOB_EVENT, "e", 0))
        sim.run()
        assert counters.sent(MessageKind.EVENT) == 1
        assert counters.sent(MessageKind.GOSSIP) == 1
        assert counters.sent(MessageKind.OOB_EVENT) == 1
        assert counters.delivered(MessageKind.EVENT) == 1
        assert counters.gossip_by_node()[0] == 1
        assert counters.events_by_node()[0] == 1

    def test_counters_observe_drops(self):
        sim = Simulator()
        counters = MessageCounters(node_count=2)
        config = NetworkConfig(error_rate=1.0)
        network = Network(sim, config, random.Random(0), counters)
        network.add_node(Recorder(0, sim))
        network.add_node(Recorder(1, sim))
        network.add_link(0, 1)
        for _ in range(10):
            network.send(0, 1, event_message())
        sim.run()
        assert counters.dropped(MessageKind.EVENT) == 10
        assert counters.loss_rate(MessageKind.EVENT) == 1.0

    def test_null_observer_by_default(self):
        sim = Simulator()
        network, nodes = make_network(sim)
        network.add_link(0, 1)
        network.send(0, 1, event_message())
        sim.run()  # no crash: null observer swallows everything
        assert len(nodes[1].received) == 1
