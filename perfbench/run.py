"""The repository benchmark: ``python3 perfbench/run.py``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload figure --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload scale --seed 1 --seconds 20 --trace 1

Workloads (``perfbench/workloads.py``; rationale in ``perfbench/spec.json``):
``figure``, ``churn``, ``scale`` (single simulation cells) and ``sweep``
(a journaled 12-cell grid on two worker processes).

Every measured run is a fresh child process (``perfbench/cell.py``) that
receives only the workload name and seed; runs repeat until ``--seconds``
is spent (with a per-workload minimum) and every metric is the median over
the runs.  Each run is checked: it must not raise, must make no unexpected
or duplicate delivery, must publish something, and for a seed pinned in
``spec.json`` its ``RunResult.signature()`` digest must match the pin.
Every deterministic per-layer count must repeat exactly across the runs.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs (untraced, traced) pairs and reports the per-layer
metrics: exact counts from the results, self times from spans recorded
around each layer's entry points (``perfbench/spans.py``).  A traced run
must reproduce its untraced twin's signature, and its layer self times
plus ``unattributed`` must add up to its wall time.  Each traced run
writes its raw spans to ``.perfbench/spans-<workload>-seed<n>-<i>.bin``
when it ends, and the benchmark writes a per-entry-point summary of them
to ``.perfbench/spans-<workload>-seed<n>.json``.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit status 0 means a result was printed;
a tree without ``src/repro`` exits 2 without one.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

#: No invocation may run longer than this, whatever ``--seconds`` says.
HARD_LIMIT_S = 170.0
#: Tolerance of the "self times add up to the wall time" check.
ATTRIBUTION_TOLERANCE_S = 1e-6


def child(args: list, timeout: float) -> dict:
    """Run ``cell.py WORKLOAD SEED MODE [SPANS_FILE]`` in a fresh
    interpreter and return its record.

    The child leads its own process group, so a run that overstays its
    time is killed together with any sweep workers it forked.
    """
    mode = args[2]
    command = [sys.executable, str(HERE / "cell.py")] + args
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("REPRO_PAPER_SCALE", None)  # bench scale, always
    process = subprocess.Popen(command, cwd=ROOT, env=env, text=True,
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                               start_new_session=True)
    try:
        stdout, stderr = process.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        return {"mode": mode, "error": f"{mode} run exceeded {timeout:.0f} s"}
    lines = stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1]) if process.returncode == 0 else None
    except (IndexError, json.JSONDecodeError):
        record = None
    if not isinstance(record, dict):
        tail = " | ".join(stderr.strip().splitlines()[-3:])
        record = {"error": f"{mode} child exited {process.returncode} "
                           f"without a record: {tail}"}
    record["mode"] = mode
    return record


def check(record: dict, expected_digest: str) -> list:
    """Problems with one run's output (empty: the run is correct)."""
    if "error" in record:
        return [record["error"]]
    problems = []
    for counter in ("unexpected_deliveries", "duplicate_deliveries"):
        if record[counter]:
            problems.append(f"{counter} = {record[counter]}")
    if record["events_published"] <= 0:
        problems.append("nothing was published")
    if expected_digest and record["digest"] != expected_digest:
        problems.append(f"signature digest {record['digest'][:16]} differs from "
                        f"the pinned {expected_digest[:16]}")
    trace = record.get("trace")
    if trace is not None:
        problems.extend(trace["problems"])
        if trace["attribution_error_s"] > ATTRIBUTION_TOLERANCE_S:
            problems.append("layer self times + unattributed != traced wall time "
                            f"(off by {trace['attribution_error_s']:.3g} s)")
    return problems


def measure(workload: str, seed: int, seconds: float, traced: bool,
            spans_dir: str) -> list:
    """Runs (or untraced/traced pairs) until ``seconds`` is spent."""
    started = time.perf_counter()
    rounds = []
    durations = []
    while True:
        elapsed = time.perf_counter() - started
        estimate = statistics.median(durations) if durations else 0.0
        enough = len(rounds) >= (1 if traced else workloads.MIN_RUNS[workload])
        if (enough and elapsed + estimate > seconds) or (
                rounds and elapsed + estimate > HARD_LIMIT_S):
            return rounds
        round_begin = time.perf_counter()
        args = [workload, str(seed)]
        pair = [child(args + ["plain"], HARD_LIMIT_S - elapsed)]
        if traced:
            spans_file = os.path.join(
                spans_dir, f"spans-{workload}-seed{seed}-{len(rounds) + 1}.bin")
            pair.append(child(args + ["traced", spans_file],
                              HARD_LIMIT_S - (time.perf_counter() - started)))
        rounds.append(pair)
        durations.append(time.perf_counter() - round_begin)


def end_to_end(records: list) -> dict:
    timed = [r for r in records if "error" not in r]
    if not timed:
        return {}
    median = statistics.median
    return {
        "setup_s": median(r["setup_s"] for r in timed),
        "run_s": median(r["run_s"] for r in timed),
        "sim_events_per_s": median(r["events"] / r["loop_s"] for r in timed),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in timed),
        "cells_per_s": median(r["cells_per_s"] for r in timed),
    }


def per_layer(plain: list, traced: list) -> dict:
    good = [(p, t) for p, t in zip(plain, traced)
            if "error" not in p and "error" not in t]
    if not good:
        return {}
    values = dict(good[0][0]["counts"])
    sends, detected, recovered = (values["network.sends"],
                                  values["recovery.losses_detected"],
                                  values["recovery.losses_recovered"])
    values["network.loss_ratio"] = values["network.drops"] / sends if sends else 0.0
    values["recovery.recovered_ratio"] = recovered / detected if detected else 0.0
    values["recovery.gossip_per_recovery"] = (
        values["recovery.gossip_sent"] / recovered if recovered else 0.0)
    for key in good[0][1]["trace"]["values"]:
        values[key] = statistics.median(t["trace"]["values"][key] for _, t in good)
    values["trace.overhead"] = statistics.median(
        t["run_s"] / p["run_s"] for p, t in good)
    return values


def determinism(records: list) -> list:
    """Every run of one seed must give one digest and one set of counts."""
    ok = [r for r in records if "error" not in r]
    problems = []
    if len({r["digest"] for r in ok}) > 1:
        problems.append("signature digests differ between runs of one seed "
                        "(traced vs untraced, or run to run)")
    if any(r["counts"] != ok[0]["counts"] for r in ok):
        problems.append("exact per-layer counts differ between runs of one seed")
    return problems


def describe(index: int, record: dict, problems: list) -> str:
    mode = record["mode"]
    if "error" in record:
        return f"  run {index} ({mode}): FAILED {problems[0]}"
    text = (f"  run {index} ({mode}): run {record['run_s']:.3f} s, "
            f"rss {record['peak_rss_mb']:.1f} MB, "
            f"delivery_rate {record['delivery_rate']:.6f}, "
            f"digest {record['digest'][:16]}")
    if "setup_s" in record:
        text += f", setup {record['setup_s']:.4f} s"
    return text + (f" -- FAILED: {'; '.join(problems)}" if problems else " -- ok")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((HERE / "spec.json").read_text())
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    pinned = spec["pinned_digests"].get(args.workload, {}).get(str(args.seed), "")
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    for stale in out_dir.glob("sweep-*"):  # journals of killed sweep runs
        shutil.rmtree(stale, ignore_errors=True)

    rounds = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     str(out_dir))
    plain = [pair[0] for pair in rounds]
    traced = [pair[1] for pair in rounds if len(pair) > 1]
    records = plain + traced

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    failed = 0
    for index, pair in enumerate(rounds, 1):
        for record in pair:
            problems = check(record, pinned)
            failed += bool(problems)
            print(describe(index, record, problems))
            for entry in record.get("trace", {}).get("missing_entry_points", ()):
                print(f"  warning: traced entry point {entry} not found; its "
                      "time counts in its caller's layer")
    digests = sorted({r["digest"] for r in records if "digest" in r})
    print(f"signature digest: {', '.join(digests) or 'none'} "
          f"(pinned: {pinned or 'no pin for this seed'})")
    harness_problems = determinism(records)
    for problem in harness_problems:
        print(f"  FAILED: {problem}")

    e2e = end_to_end(plain)
    layers = per_layer(plain, traced) if traced else {}
    sections = [("end_to_end", e2e)] + ([("per_layer", layers)] if traced else [])
    for section, values in sections:
        print(f"{section} (median of {len(plain)} runs):")
        for metric in benchmark[section]:
            if metric["name"] in values:
                print(f"  {metric['name']:<30} {values[metric['name']]:>16.6g} "
                      f"{metric['unit']}")
    if traced:
        with open(out_dir / f"spans-{args.workload}-seed{args.seed}.json", "w") as f:
            json.dump([t["trace"]["by_name"] for t in traced if "trace" in t], f,
                      indent=1)

    reported = "per_layer" if args.trace else "end_to_end"
    values = layers if args.trace else e2e
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in benchmark[reported] if m["name"] in values
    }
    result = {
        "correct": failed == 0 and not harness_problems
        and len(metrics) == len(benchmark[reported]),
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
