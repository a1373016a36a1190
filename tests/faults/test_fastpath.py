"""The fault layer must cost *nothing* when it is switched off.

Fault and degradation machinery lives in components that are ``None``
when unused, so each per-message step has one code path:

* The network layer keeps its configuration in components: each link
  direction and the out-of-band channel hold a loss component (``None``
  when lossless), and delivery is always crash-aware through one
  ``dict.get``.  The tests here pin the behaviour that design promises --
  a lossless path draws nothing, loss-rate setters take effect mid-run,
  crashes need no setup-time flag.
* A recovery's ``peers`` is a peer-liveness tracker under graceful
  degradation and ``None`` otherwise.  Forwarding and inbound traffic use
  it only when it is set: the tests here pin what the tracker changes
  (skipped neighbors, armed probes, cleared records) and that without it
  forwarding draws exactly what the untracked protocol draws.
"""

from __future__ import annotations

import random

from repro.metrics.counters import MessageCounters
from repro.network.message import Message, MessageKind
from repro.network.network import Network, NetworkConfig
from repro.recovery.base import RecoveryConfig
from repro.recovery.degrade import DegradationConfig
from repro.recovery.digest import PushGossip
from repro.scenarios.builder import Simulation
from repro.scenarios.config import SimulationConfig
from repro.sim.engine import Simulator
from repro.topology.generator import star_tree
from tests.network.test_link import Recorder, event_message
from tests.recovery.harness import RecoveryHarness


def _config(**overrides) -> SimulationConfig:
    base = dict(
        n_dispatchers=8,
        n_patterns=8,
        algorithm="combined-pull",
        error_rate=0.1,
        publish_rate=10.0,
        buffer_size=100,
        sim_time=1.0,
        measure_start=0.2,
        measure_end=0.8,
        seed=3,
    )
    base.update(overrides)
    return SimulationConfig(**base)


def _pair(config: NetworkConfig, rng: random.Random):
    sim = Simulator()
    counters = MessageCounters(node_count=2)
    network = Network(sim, config, rng, counters)
    nodes = [Recorder(0, sim), Recorder(1, sim)]
    for node in nodes:
        network.add_node(node)
    network.add_link(0, 1)
    return sim, network, counters, nodes


def _send(sim, network, count: int) -> None:
    for _ in range(count):
        network.send(0, 1, event_message())
        network.send(1, 0, event_message(sender=1))
    sim.run()


def _send_oob(sim, network, count: int) -> None:
    for _ in range(count):
        network.send_oob(0, 1, Message(MessageKind.OOB_EVENT, "e", 0))
    sim.run()


def _star(degradation=None, **recovery_options) -> RecoveryHarness:
    """Node 0 and its three leaves all subscribe to pattern 1; no gossip
    timers run, so the tests drive forwarding by hand."""
    config = RecoveryConfig(
        gossip_interval=0.05, degradation=degradation, **recovery_options
    )
    return RecoveryHarness(
        star_tree(4),
        "push",
        {node: (1,) for node in range(4)},
        config=config,
        start=False,
    )


def _spy_gossip(dispatcher) -> list:
    """Capture ``send_gossip`` targets instead of putting copies on the wire."""
    targets = []
    dispatcher.send_gossip = lambda neighbor, payload, size_bits=None: (
        targets.append(neighbor)
    )
    return targets


def _time_out(harness: RecoveryHarness, peers, *neighbors: int) -> None:
    """Let one unanswered probe per neighbor expire."""
    for neighbor in neighbors:
        peers.note_sent(neighbor)
    harness.run_for(peers.config.request_timeout + 0.005)


class TestSinglePath:
    def test_forward_along_pattern_skips_backoff_and_arms_probes(self):
        harness = _star(DegradationConfig(), p_forward=1.0)
        recovery = harness.recovery(0)
        peers = recovery.peers
        _time_out(harness, peers, 1)
        assert peers.timeouts == 1 and not peers.allow(1)  # backing off
        skips = peers.skips
        targets = _spy_gossip(recovery.dispatcher)
        assert recovery.forward_along_pattern(1, "digest", None) == 2
        assert targets == [2, 3]
        assert peers.skips == skips + 1
        # One probe per copy sent: neither leaf answers the spied copies.
        harness.run_for(peers.config.request_timeout + 0.005)
        assert peers.timeouts == 3

    def test_forward_randomly_avoids_suspected_then_falls_back(self):
        harness = _star(DegradationConfig(max_retries=1))
        recovery = harness.recovery(0)
        peers = recovery.peers
        _time_out(harness, peers, 1, 2)
        assert peers.is_suspected(1) and peers.is_suspected(2)
        targets = _spy_gossip(recovery.dispatcher)
        for _ in range(20):
            assert recovery.forward_randomly("walk", None) == 1
        assert set(targets) == {3}
        _time_out(harness, peers, 3)
        assert all(peers.is_suspected(n) for n in (1, 2, 3))
        targets.clear()
        for _ in range(40):
            assert recovery.forward_randomly("walk", 1) == 1
        # All suspected: any neighbor, the previous hop included.
        assert set(targets) == {1, 2, 3}

    def test_inbound_gossip_and_oob_clear_the_sender_record(self):
        harness = _star(DegradationConfig(max_retries=1))
        peers = harness.recovery(0).peers
        leaf = harness.system.dispatchers[1]
        _time_out(harness, peers, 1)
        assert peers.is_suspected(1)
        leaf.send_gossip(0, PushGossip(1, 1, ()))
        harness.run_for(0.01)
        assert not peers.is_suspected(1) and peers.allow(1)
        _time_out(harness, peers, 1)
        assert peers.is_suspected(1)
        leaf.send_oob_request(0, ())
        harness.run_for(0.01)
        assert not peers.is_suspected(1) and peers.allow(1)

    def test_untracked_forwarding_draws_like_the_plain_protocol(self):
        """Without degradation: one ``random()`` per gossip target and one
        ``randrange`` per walk step, and no tracker bookkeeping."""
        harness = _star()
        recovery = harness.recovery(0)
        assert recovery.peers is None
        targets = _spy_gossip(recovery.dispatcher)
        expected_rng = random.Random()
        expected_rng.setstate(recovery.rng.getstate())
        expected = [
            n for n in (1, 2, 3) if expected_rng.random() < recovery.config.p_forward
        ]
        expected.append((1, 2, 3)[expected_rng.randrange(3)])
        recovery.forward_along_pattern(1, "digest", None)
        recovery.forward_randomly("walk", None)
        assert targets == expected
        assert recovery.rng.getstate() == expected_rng.getstate()


class TestNetworkComponents:
    def test_lossless_link_draws_nothing(self):
        rng = random.Random(7)
        sim, network, counters, nodes = _pair(NetworkConfig(error_rate=0.0), rng)
        before = rng.getstate()
        _send(sim, network, 50)
        assert rng.getstate() == before
        assert len(nodes[0].received) == len(nodes[1].received) == 50

    def test_set_error_rate_takes_effect_mid_run(self):
        rng = random.Random(7)
        sim, network, counters, nodes = _pair(NetworkConfig(error_rate=0.3), rng)
        link = network.link(0, 1)
        link.set_error_rate(1.0)
        _send(sim, network, 20)
        assert nodes[1].received == [] and nodes[0].received == []
        assert link.stats.lost == 40
        link.set_error_rate(0.0)
        before = rng.getstate()
        _send(sim, network, 20)
        assert rng.getstate() == before
        assert len(nodes[0].received) == len(nodes[1].received) == 20
        assert link.stats.lost == 40

    def test_set_oob_error_rate_takes_effect_mid_run(self):
        rng = random.Random(7)
        sim, network, counters, nodes = _pair(
            NetworkConfig(error_rate=0.0, oob_error_rate=0.3), rng
        )
        network.set_oob_error_rate(1.0)
        assert network.config.oob_error_rate == 1.0
        _send_oob(sim, network, 20)
        assert nodes[1].received_oob == []
        assert counters.dropped(MessageKind.OOB_EVENT) == 20
        network.set_oob_error_rate(0.0)
        before = rng.getstate()
        _send_oob(sim, network, 20)
        assert rng.getstate() == before
        assert len(nodes[1].received_oob) == 20
        assert counters.dropped(MessageKind.OOB_EVENT) == 20

    def test_set_node_down_works_without_fault_plan(self):
        simulation = Simulation(_config(error_rate=0.0))
        network = simulation.network
        a, b = network.edges()[0]
        assert network.send(a, b, Message(MessageKind.CONTROL, None, a)) is True
        network.set_node_down(b, True)  # crash while the frame is on the wire
        assert network.is_down(b)
        simulation.sim.run(until=0.01)
        assert network.down_drops == 1
        assert simulation.counters.dropped(MessageKind.CONTROL) == 1
        assert simulation.counters.delivered(MessageKind.CONTROL) == 0
