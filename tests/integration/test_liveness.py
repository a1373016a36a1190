"""Liveness oracle: a lossless, fault-free, static run delivers everything.

With ε = 0, no faults and no reconfiguration, tree routing alone reaches
every subscriber, and recovery must neither lose nor duplicate anything on
top of it -- the "every subscriber receives" property of "A Formalization
of the Correctness of the Floodsub Protocol" (PAPERS.md).  Gossip-only
dissemination is exempt: it never routes on the tree, so its delivery is
bounded by the epidemic's reach by design.

Each algorithm runs on every overlay family; the cache layout and graceful
degradation alternate across the cells so all four combinations occur
(degradation is the only switch that reaches the tracked peer bookkeeping
in receive and forwarding).
"""

from __future__ import annotations

import itertools

import pytest

from repro.recovery import ALGORITHMS
from repro.recovery.degrade import DegradationConfig
from repro.scenarios.config import SimulationConfig
from repro.scenarios.runner import run_scenario

ROUTED = [name for name in ALGORITHMS if name != "gossip-dissemination"]
OVERLAYS = ["bushy", "scale-free", "small-world"]
VARIANTS = [
    ("classic", None),
    ("compact", DegradationConfig()),
    ("compact", None),
    ("classic", DegradationConfig()),
]
CELLS = [
    pytest.param(
        algorithm, overlay, layout, degradation,
        id=f"{algorithm}-{overlay}-{layout}-{'degraded' if degradation else 'plain'}",
    )
    for index, (algorithm, overlay) in enumerate(
        itertools.product(ROUTED, OVERLAYS)
    )
    for layout, degradation in [VARIANTS[index % len(VARIANTS)]]
]


@pytest.mark.parametrize("algorithm,overlay,cache_layout,degradation", CELLS)
def test_lossless_static_run_delivers_everything(
    algorithm, overlay, cache_layout, degradation
):
    config = SimulationConfig(
        n_dispatchers=30,
        n_patterns=20,
        algorithm=algorithm,
        tree_style=overlay,
        cache_layout=cache_layout,
        degradation=degradation,
        error_rate=0.0,
        publish_rate=10.0,
        sim_time=2.0,
        measure_start=0.5,
        measure_end=1.5,
        seed=11,
    )
    result = run_scenario(config)
    assert result.events_published > 0
    assert result.delivery_rate == 1.0
    assert result.duplicate_deliveries == 0
    assert result.unexpected_deliveries == 0
