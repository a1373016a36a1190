"""The fault layer must cost *nothing* when it is switched off.

Two mechanisms keep fault machinery off the fault-free hot path:

* The network layer keeps its configuration in components: each link
  direction and the out-of-band channel hold a loss component (``None``
  when lossless), and delivery is always crash-aware through one
  ``dict.get``.  The tests here pin the behaviour that design promises --
  a lossless path draws nothing, loss-rate setters take effect mid-run,
  crashes need no setup-time flag.
* ``Dispatcher.receive`` and recovery forwarding are bound at construction
  to a *plain* variant (no peer bookkeeping) or a *tracked* one.  These
  binding decisions are pinned, so a future change cannot silently route
  the fault-free path through the instrumented variants (a correct but
  slower result the behavioural suites would miss).
"""

from __future__ import annotations

import random

from repro.faults import FaultPlan, scripted_crashes
from repro.metrics.counters import MessageCounters
from repro.network.message import Message, MessageKind
from repro.network.network import Network, NetworkConfig
from repro.recovery.degrade import DegradationConfig
from repro.scenarios.builder import Simulation
from repro.scenarios.config import SimulationConfig
from repro.sim.engine import Simulator
from tests.network.test_link import Recorder, event_message


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


def _pair(config: NetworkConfig, rng: random.Random, **network_options):
    sim = Simulator()
    counters = MessageCounters(node_count=2)
    network = Network(sim, config, rng, counters, **network_options)
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


class TestFastPathBinding:
    def test_no_faults_binds_fast_variants(self):
        simulation = Simulation(_config())
        # No degradation config -> no per-peer bookkeeping in forwarding.
        for dispatcher in simulation.system.dispatchers:
            recovery = dispatcher.recovery
            assert recovery.peers is None
            assert (
                recovery.forward_along_pattern.__func__
                is type(recovery)._forward_along_pattern_plain
            )
            assert dispatcher.receive.__func__ is type(dispatcher)._receive_plain

    def test_fault_plan_binds_checked_variants(self):
        plan = FaultPlan(crashes=scripted_crashes([1], at=0.5, duration=0.2))
        simulation = Simulation(
            _config(faults=plan, degradation=DegradationConfig())
        )
        for dispatcher in simulation.system.dispatchers:
            recovery = dispatcher.recovery
            assert recovery.peers is not None
            assert (
                recovery.forward_along_pattern.__func__
                is type(recovery)._forward_along_pattern_tracked
            )
            assert dispatcher.receive.__func__ is type(dispatcher)._receive_tracked


class TestNetworkComponents:
    def test_lossless_link_draws_nothing(self):
        """Under both loss disciplines: the shared stream, and the private
        stream of each link direction (per-edge)."""
        shared = random.Random(7)
        streams = {}

        def per_edge(a, b):
            streams[a, b] = random.Random(a * 10 + b)
            return streams[a, b]

        for options in ({}, {"link_rng_factory": per_edge}):
            sim, network, counters, nodes = _pair(
                NetworkConfig(error_rate=0.0), shared, **options
            )
            before = [rng.getstate() for rng in (shared, *streams.values())]
            _send(sim, network, 50)
            assert [rng.getstate() for rng in (shared, *streams.values())] == before
            assert len(nodes[0].received) == len(nodes[1].received) == 50
        assert sorted(streams) == [(0, 1), (1, 0)]

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
