"""Workload definitions: every simulation config the benchmark runs.

Each workload is a pure function of the ``--seed`` argument, so the same
seed always yields the same configs.  The program under test only ever
receives these configs; nothing else about a run is chosen by it.

``figure``, ``churn`` and ``scale`` are single cells (one
:class:`~repro.scenarios.builder.Simulation` per measured run); ``sweep``
is a grid of short cells run through the journaled ``map_scenarios``.
"""

from __future__ import annotations

import importlib

#: Names accepted by ``--workload``, in the order BENCHMARK.json lists them.
WORKLOADS = ("figure", "churn", "scale", "sweep")

#: Algorithms of the sweep grid (the Figure 3(a) legend minus the
#: idealized comparators).
SWEEP_ALGORITHMS = ("none", "push", "subscriber-pull", "combined-pull")
#: Seeds per algorithm in the sweep grid.
SWEEP_SEEDS = 3
#: Worker processes of the sweep (the host the bounds were set on has 2).
SWEEP_JOBS = 2

#: Fewest measured runs per invocation, whatever ``--seconds`` says: the
#: reported value is a median over these fresh child processes.
MIN_RUNS = {"figure": 3, "churn": 3, "scale": 2, "sweep": 3}

#: ``Simulation(config)`` constructions timed per child process.  A cheap
#: set-up (milliseconds) is repeated so its median is steady; the scale
#: cell's seconds-long set-up is timed once per child.
SETUPS_PER_RUN = {"figure": 7, "churn": 7, "scale": 1}

#: Every package a cell touches.  Children import these before timing so
#: that ``setup_s`` never pays for a first import.
PRELOAD = (
    "repro.sim.engine",
    "repro.sim.timers",
    "repro.network.network",
    "repro.pubsub.system",
    "repro.pubsub.compact",
    "repro.recovery",
    "repro.recovery.degrade",
    "repro.metrics.delivery",
    "repro.workload.publishers",
    "repro.topology.generator",
    "repro.topology.graphs",
    "repro.topology.reconfiguration",
    "repro.faults",
    "repro.scenarios.builder",
    "repro.scenarios.experiments",
    "repro.scenarios.serialize",
    "repro.parallel.executor",
    "repro.campaign.runtime",
)


def preload() -> None:
    for name in PRELOAD:
        importlib.import_module(name)


def figure_config(seed: int):
    """The Figure 3(a) combined-pull cell at bench scale (N=50, ε=0.1)."""
    from repro.scenarios.experiments import base_config

    return base_config(seed=seed).replace(algorithm="combined-pull")


def churn_config(seed: int):
    """Push under burst loss, link reconfiguration and node churn."""
    from repro.faults import ChurnProcess, FaultPlan, GilbertElliottConfig
    from repro.recovery.degrade import DegradationConfig
    from repro.scenarios.experiments import base_config

    epsilon = 0.05
    plan = FaultPlan(
        churn=ChurnProcess(rate=1.0, mean_downtime=0.5),
        link_loss=GilbertElliottConfig.from_epsilon(epsilon, mean_burst_length=5.0),
    )
    return base_config(seed=seed).replace(
        algorithm="push",
        error_rate=epsilon,
        reconfiguration_interval=0.2,
        faults=plan,
        degradation=DegradationConfig(),
    )


def scale_config(seed: int):
    """The N=10⁴ point of ``fig_scalability``."""
    from repro.scenarios.config import SimulationConfig

    n = 10_000
    return SimulationConfig(
        n_dispatchers=n,
        n_patterns=70,
        pi_max=2,
        publish_rate=200.0 / n,
        sim_time=3.0,
        measure_start=0.5,
        measure_end=2.5,
        buffer_size=32,
        gossip_interval=0.1,
        error_rate=0.1,
        algorithm="combined-pull",
        tree_style="scale-free",
        workload_model="aggregate",
        seed=seed,
    )


def sweep_configs(seed: int) -> list:
    """A Fig 3(a)-style grid of short N=24 cells, algorithm-major."""
    from repro.scenarios.experiments import base_config

    configs = []
    for algorithm in SWEEP_ALGORITHMS:
        for offset in range(SWEEP_SEEDS):
            configs.append(
                base_config(seed=seed * SWEEP_SEEDS + offset).replace(
                    algorithm=algorithm,
                    n_dispatchers=24,
                    sim_time=2.5,
                    measure_start=0.5,
                    measure_end=2.0,
                    buffer_size=400,
                )
            )
    return configs


CELL_CONFIGS = {
    "figure": figure_config,
    "churn": churn_config,
    "scale": scale_config,
}
