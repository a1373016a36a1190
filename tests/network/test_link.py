"""Tests for the link model: serialization, propagation, loss, outage."""

from __future__ import annotations

import random

import pytest

from repro.network.message import Message, MessageKind
from repro.network.network import Network, NetworkConfig
from repro.sim.engine import Simulator


class Recorder:
    """Stub node that records deliveries with timestamps."""

    def __init__(self, node_id: int, sim: Simulator) -> None:
        self.node_id = node_id
        self.sim = sim
        self.received = []
        self.received_oob = []

    def receive(self, message, from_node):
        self.received.append((self.sim.now, message, from_node))

    def receive_oob(self, message, from_node):
        self.received_oob.append((self.sim.now, message, from_node))


def make_pair(sim, config=None, seed=0):
    network = Network(sim, config or NetworkConfig(error_rate=0.0), random.Random(seed))
    a, b = Recorder(0, sim), Recorder(1, sim)
    network.add_node(a)
    network.add_node(b)
    network.add_link(0, 1)
    return network, a, b


def event_message(sender=0, size_bits=2048):
    return Message(MessageKind.EVENT, "payload", sender, size_bits=size_bits)


class TestTransmission:
    def test_delivery_latency_is_serialization_plus_propagation(self):
        sim = Simulator()
        config = NetworkConfig(
            bandwidth_bps=1_000_000.0, propagation_delay=0.001, error_rate=0.0
        )
        network, a, b = make_pair(sim, config)
        network.send(0, 1, event_message(size_bits=10_000))
        sim.run()
        # 10_000 bits / 1 Mbit/s = 10 ms, + 1 ms propagation.
        assert b.received[0][0] == pytest.approx(0.011)

    def test_fifo_queueing_per_direction(self):
        sim = Simulator()
        config = NetworkConfig(
            bandwidth_bps=1_000_000.0, propagation_delay=0.0, error_rate=0.0
        )
        network, a, b = make_pair(sim, config)
        for index in range(3):
            network.send(0, 1, Message(MessageKind.EVENT, index, 0, size_bits=10_000))
        sim.run()
        times = [t for t, _, _ in b.received]
        payloads = [m.payload for _, m, _ in b.received]
        assert payloads == [0, 1, 2]
        assert times == pytest.approx([0.01, 0.02, 0.03])

    def test_directions_do_not_share_the_transmitter(self):
        sim = Simulator()
        config = NetworkConfig(
            bandwidth_bps=1_000_000.0, propagation_delay=0.0, error_rate=0.0
        )
        network, a, b = make_pair(sim, config)
        network.send(0, 1, event_message(size_bits=10_000))
        network.send(1, 0, event_message(sender=1, size_bits=10_000))
        sim.run()
        assert b.received[0][0] == pytest.approx(0.01)
        assert a.received[0][0] == pytest.approx(0.01)

    def test_previous_hop_reported(self):
        sim = Simulator()
        network, a, b = make_pair(sim)
        network.send(0, 1, event_message())
        sim.run()
        assert b.received[0][2] == 0

    def test_send_without_link_is_counted_lost(self):
        sim = Simulator()
        network = Network(sim, NetworkConfig(error_rate=0.0), random.Random(0))
        a, b = Recorder(0, sim), Recorder(1, sim)
        network.add_node(a)
        network.add_node(b)
        assert network.send(0, 1, event_message()) is False
        sim.run()
        assert b.received == []


class TestLoss:
    def test_zero_error_rate_delivers_everything(self):
        sim = Simulator()
        network, a, b = make_pair(sim)
        for _ in range(200):
            network.send(0, 1, event_message())
        sim.run()
        assert len(b.received) == 200

    def test_error_rate_one_drops_everything(self):
        sim = Simulator()
        network, a, b = make_pair(sim, NetworkConfig(error_rate=1.0))
        for _ in range(50):
            network.send(0, 1, event_message())
        sim.run()
        assert b.received == []
        link = network.link(0, 1)
        assert link.stats.lost == 50

    def test_loss_rate_approximates_epsilon(self):
        sim = Simulator()
        network, a, b = make_pair(sim, NetworkConfig(error_rate=0.3), seed=11)
        total = 3000
        for _ in range(total):
            network.send(0, 1, event_message())
        sim.run()
        observed = 1 - len(b.received) / total
        assert observed == pytest.approx(0.3, abs=0.04)

    def test_lost_message_still_occupies_the_transmitter(self):
        sim = Simulator()
        config = NetworkConfig(
            bandwidth_bps=1_000_000.0, propagation_delay=0.0, error_rate=1.0
        )
        network, a, b = make_pair(sim, config)
        network.send(0, 1, event_message(size_bits=10_000))
        # Lower the error rate after the first (lost) message is queued.
        network.link(0, 1).set_error_rate(0.0)
        network.send(0, 1, event_message(size_bits=10_000))
        sim.run()
        # Second message waits for the first one's serialization slot.
        assert b.received[0][0] == pytest.approx(0.02)


class TestOutage:
    def test_down_link_drops_sends(self):
        sim = Simulator()
        network, a, b = make_pair(sim)
        network.link(0, 1).set_up(False)
        assert network.send(0, 1, event_message()) is False
        sim.run()
        assert b.received == []
        assert network.link(0, 1).stats.dropped_down == 1

    def test_in_flight_messages_lost_when_link_removed(self):
        sim = Simulator()
        config = NetworkConfig(
            bandwidth_bps=1_000.0, propagation_delay=0.0, error_rate=0.0
        )
        network, a, b = make_pair(sim, config)
        network.send(0, 1, event_message(size_bits=10_000))  # 10 s in flight
        sim.schedule(1.0, network.remove_link, 0, 1)
        sim.run()
        assert b.received == []

    def test_remove_and_readd_link(self):
        sim = Simulator()
        network, a, b = make_pair(sim)
        network.remove_link(0, 1)
        assert not network.has_link(0, 1)
        network.add_link(0, 1)
        network.send(0, 1, event_message())
        sim.run()
        assert len(b.received) == 1


class TestLinkValidation:
    def test_duplicate_link_rejected(self):
        sim = Simulator()
        network, a, b = make_pair(sim)
        with pytest.raises(ValueError):
            network.add_link(0, 1)
        with pytest.raises(ValueError):
            network.add_link(1, 0)

    def test_unknown_endpoint_rejected(self):
        sim = Simulator()
        network, a, b = make_pair(sim)
        with pytest.raises(KeyError):
            network.add_link(0, 5)

    def test_remove_missing_link_rejected(self):
        sim = Simulator()
        network = Network(sim, NetworkConfig(), random.Random(0))
        network.add_node(Recorder(0, sim))
        network.add_node(Recorder(1, sim))
        with pytest.raises(KeyError):
            network.remove_link(0, 1)

    def test_utilization_accounting(self):
        sim = Simulator()
        config = NetworkConfig(
            bandwidth_bps=1_000_000.0, propagation_delay=0.0, error_rate=0.0
        )
        network, a, b = make_pair(sim, config)
        for _ in range(10):
            network.send(0, 1, event_message(size_bits=10_000))
        sim.run()
        link = network.link(0, 1)
        # 10 x 10ms busy over 0.1 s elapsed: one direction fully busy.
        assert link.stats.utilization(0.1) == pytest.approx(0.5)
