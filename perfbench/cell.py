"""One measured run, in a fresh process: ``python3 perfbench/cell.py``.

Usage::

    PYTHONPATH=src python3 perfbench/cell.py WORKLOAD SEED plain
    PYTHONPATH=src python3 perfbench/cell.py WORKLOAD SEED traced SPANS_FILE

Prints one JSON object on stdout.  ``run.py`` starts one of these per
measured run, so imports stay out of the timings and ``ru_maxrss`` is the
run's own high-water mark.  A run that raises is reported as
``{"error": ...}`` with exit code 0; any other exit is a harness fault.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import spans
import workloads

LAYERS = ("sim", "network", "pubsub", "recovery", "metrics", "workload",
          "topology", "faults", "scenarios")
#: Traced per-layer values of a cell and of a sweep; each reports the
#: other's as 0 (a sweep's layers run in worker processes, untraced).
CELL_TRACED = (
    "sim.scheduled", "sim.self_s", "network.transmit_calls", "network.self_s",
    "pubsub.receive_calls", "pubsub.self_s", "pubsub.route_build_s",
    "recovery.self_s", "metrics.self_s", "metrics.collect_s", "workload.self_s",
    "topology.build_s", "topology.summary_s", "faults.self_s",
    "scenarios.setup_other_s", "scenarios.collect_s",
)
SWEEP_TRACED = ("parallel.efficiency", "parallel.cell_s", "campaign.journal_s")


def digest(signature) -> str:
    return hashlib.sha256(repr(signature).encode()).hexdigest()


def peak_rss_mb(include_children: bool = False) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


def exact_counts(results, simulation=None) -> dict:
    """Deterministic per-layer counts, summed over ``results``.

    Everything but ``pubsub.match_ops`` is read from the RunResults; that
    one needs the dispatchers, so it is only known for single cells.
    """
    total = {
        "sim.events": 0, "network.sends": 0, "network.drops": 0,
        "pubsub.deliveries": 0, "pubsub.match_ops": 0,
        "recovery.rounds": 0, "recovery.gossip_sent": 0,
        "recovery.requests_sent": 0, "recovery.requests_served": 0,
        "recovery.losses_detected": 0, "recovery.losses_recovered": 0,
        "workload.publishes": 0, "topology.reconfigurations": 0,
        "faults.crashes": 0, "faults.burst_drops": 0, "faults.down_drops": 0,
    }
    for result in results:
        messages = result.messages
        gossip = result.gossip_stats
        total["sim.events"] += result.sim_events_processed
        total["network.sends"] += sum(
            v for k, v in messages.items() if k.startswith("sent_"))
        total["network.drops"] += sum(
            v for k, v in messages.items() if k.startswith("dropped_"))
        total["pubsub.deliveries"] += result.delivery_full.delivered
        total["recovery.rounds"] += gossip.rounds
        total["recovery.gossip_sent"] += gossip.gossip_sent
        total["recovery.requests_sent"] += gossip.requests_sent
        total["recovery.requests_served"] += gossip.requests_served
        total["recovery.losses_detected"] += result.losses_detected
        total["recovery.losses_recovered"] += result.losses_recovered
        total["workload.publishes"] += result.events_published
        total["topology.reconfigurations"] += result.reconfigurations
        total["faults.crashes"] += result.faults.crashes
        total["faults.burst_drops"] += result.faults.burst_drops
        total["faults.down_drops"] += result.faults.down_node_drops
    if simulation is not None:
        total["pubsub.match_ops"] = sum(
            d.match_operations for d in simulation.system.dispatchers)
    return total


def safety(results) -> dict:
    """The invariants every run must meet, whatever the seed."""
    return {
        "unexpected_deliveries": sum(r.unexpected_deliveries for r in results),
        "duplicate_deliveries": sum(r.duplicate_deliveries for r in results),
        "events_published": sum(r.events_published for r in results),
        "delivery_rate": statistics.fmean(r.delivery_rate for r in results),
    }


class LoopTimer:
    """Host seconds spent inside ``Simulator.run`` (the event loop)."""

    def __init__(self) -> None:
        from repro.sim.engine import Simulator

        self.seconds = 0.0
        original = Simulator.run

        def run(sim, *args, **kwargs):
            begin = time.perf_counter()
            try:
                return original(sim, *args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - begin

        Simulator.run = run


def no_span(name: str):
    return contextlib.nullcontext()


def run_cell(workload: str, seed: int, recorder) -> dict:
    from repro.scenarios.builder import Simulation

    config = workloads.CELL_CONFIGS[workload](seed)
    loop = LoopTimer() if recorder is None else None
    span = no_span if recorder is None else recorder.span
    gc.collect()
    with span("bench.cell"):
        with span("bench.setup"):
            begin = time.perf_counter()
            simulation = Simulation(config)
            setup = time.perf_counter() - begin
        with span("bench.run"):
            begin = time.perf_counter()
            result = simulation.run()
            run = time.perf_counter() - begin
    record = {
        "setup_s": setup,
        "run_s": run,
        "peak_rss_mb": peak_rss_mb(),
        "cells_per_s": 1.0 / (setup + run),
        "digest": digest(result.signature()),
        "counts": exact_counts([result], simulation),
    }
    record.update(safety([result]))
    if recorder is not None:
        record["trace_values"] = cell_trace_values
        return record
    record["events"] = result.sim_events_processed
    record["loop_s"] = loop.seconds
    # Repeat cheap set-ups (after the run, so the peak above is the run's).
    setups = [setup]
    for _ in range(workloads.SETUPS_PER_RUN[workload] - 1):
        del simulation
        gc.collect()
        begin = time.perf_counter()
        simulation = Simulation(config)
        setups.append(time.perf_counter() - begin)
    record["setup_s"] = statistics.median(setups)
    return record


def cell_trace_values(analysis: spans.Analysis) -> dict:
    route = "pubsub:PubSubSystem.rebuild_routes"
    build = analysis.outermost(["topology:build_tree"])
    init = analysis.outermost(["scenarios:Simulation.__init__"])

    def calls(prefix: str) -> int:
        return analysis.calls(n for n in analysis.by_name if n.startswith(prefix))

    values = {
        "sim.scheduled": calls("sim:Simulator.schedule"),
        "network.transmit_calls": calls("network:Link._transmit"),
        "pubsub.receive_calls": calls("pubsub:Dispatcher._receive"),
        "pubsub.route_build_s": analysis.outermost([route]),
        "metrics.collect_s": analysis.outermost(
            ["metrics:DeliveryTracker.stats", "metrics:DeliveryTracker.time_series"]),
        "topology.build_s": build,
        "topology.summary_s": analysis.outermost(
            ["topology:Tree." + n for n in
             ("diameter", "average_path_length", "approx_average_path_length")]),
        "scenarios.setup_other_s": init - build - analysis.outermost(
            [route], under="bench.setup"),
        "scenarios.collect_s": analysis.outermost(["scenarios:Simulation.collect_result"]),
    }
    for layer in ("sim", "network", "pubsub", "recovery", "metrics", "workload",
                  "faults"):
        values[f"{layer}.self_s"] = analysis.layer_self.get(layer, 0.0)
    return {**values, **dict.fromkeys(SWEEP_TRACED, 0.0)}


def run_sweep(seed: int, recorder, root: str) -> dict:
    from repro.parallel.executor import map_scenarios
    from repro.scenarios.builder import Simulation

    configs = workloads.sweep_configs(seed)
    span = no_span if recorder is None else recorder.span
    scratch = os.path.join(root, ".perfbench", f"sweep-{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    gc.collect()
    try:
        with span("bench.sweep"):
            begin = time.perf_counter()
            results = map_scenarios(
                configs, jobs=workloads.SWEEP_JOBS, campaign_dir=scratch)
            wall = time.perf_counter() - begin
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    cell_loops = [r.wall_clock_seconds for r in results]
    record = {
        "run_s": wall,
        "cells_per_s": len(results) / wall,
        "peak_rss_mb": peak_rss_mb(include_children=True),
        "digest": digest(tuple(r.signature() for r in results)),
        "counts": exact_counts(results),
        "events": sum(r.sim_events_processed for r in results),
        "loop_s": sum(cell_loops),
    }
    record.update(safety(results))
    if recorder is not None:

        def sweep_trace_values(analysis: spans.Analysis) -> dict:
            return {
                **dict.fromkeys(CELL_TRACED, 0.0),
                "parallel.efficiency":
                    sum(cell_loops) / (workloads.SWEEP_JOBS * wall),
                "parallel.cell_s": statistics.median(cell_loops),
                "campaign.journal_s": analysis.layer_self.get("campaign", 0.0),
            }

        record["trace_values"] = sweep_trace_values
        return record
    # Per-cell set-up at the sweep's size, timed serially after the sweep.
    setups = []
    for config in configs:
        begin = time.perf_counter()
        Simulation(config)
        setups.append(time.perf_counter() - begin)
    record["setup_s"] = statistics.median(setups)
    return record


def trace_record(recorder: spans.Recorder, values_of, missing: list,
                 spans_file: str) -> dict:
    """The traced half of a record: per-layer values plus the checks."""
    analysis = spans.Analysis(recorder)
    recorder.dump(spans_file)
    return {
        "values": dict(values_of(analysis), unattributed=analysis.unattributed),
        "spans": len(recorder),
        "attribution_error_s": analysis.attribution_error(),
        "problems": analysis.problems[:5],
        "missing_entry_points": missing,
        "by_name": analysis.summary(),
    }


def main(argv) -> int:
    workload, seed, mode = argv[1], int(argv[2]), argv[3]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    workloads.preload()
    recorder, missing = None, []
    if mode == "traced":
        recorder = spans.Recorder()
        missing = spans.install(
            recorder, ("campaign",) if workload == "sweep" else LAYERS)
    try:
        if workload == "sweep":
            record = run_sweep(seed, recorder, root)
        else:
            record = run_cell(workload, seed, recorder)
        if recorder is not None:
            record["trace"] = trace_record(
                recorder, record.pop("trace_values"), missing, argv[4])
    except Exception as exc:  # a failed run is a result, not a crash
        record = {"error": f"{type(exc).__name__}: {exc}",
                  "traceback": traceback.format_exc()}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
