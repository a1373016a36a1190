"""Tests of the benchmark itself: ``python3 -m pytest perfbench``.

They cover the output checker (a wrong signature digest is a failed run,
not a crash and not a pass), the span analysis, the refusal to run
without the simulator sources, and the entry-point table against the
current tree.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import run
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _record(**overrides) -> dict:
    record = {
        "mode": "plain",
        "digest": "ab" * 32,
        "unexpected_deliveries": 0,
        "duplicate_deliveries": 0,
        "events_published": 10,
        "counts": {"sim.events": 5},
    }
    record.update(overrides)
    return record


def test_checker_reports_a_wrong_digest_as_a_problem():
    assert run.check(_record(), "ab" * 32) == []
    problems = run.check(_record(), "cd" * 32)
    assert len(problems) == 1 and "differs from the pinned" in problems[0]


def test_checker_reports_safety_violations_and_errors():
    assert run.check(_record(duplicate_deliveries=2), "") == [
        "duplicate_deliveries = 2"]
    assert run.check(_record(events_published=0), "") == ["nothing was published"]
    assert run.check({"error": "ValueError: boom", "mode": "plain"}, "") == [
        "ValueError: boom"]


def test_determinism_flags_runs_that_disagree():
    assert run.determinism([_record(), _record()]) == []
    assert len(run.determinism([_record(), _record(digest="cd" * 32)])) == 1
    assert len(run.determinism([_record(), _record(counts={"sim.events": 6})])) == 1


def _checkout(tmp_path: Path) -> Path:
    """A copy of what the benchmark needs: BENCHMARK.json, perfbench/, src/."""
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=ignore)
    return tmp_path


def test_wrong_pinned_digest_fails_every_run_end_to_end(tmp_path):
    """The real command against a doctored pin: it still exits 0 and prints
    a result, and that result counts every run as failed."""
    checkout = _checkout(tmp_path)
    spec_path = checkout / "perfbench" / "spec.json"
    spec = json.loads(spec_path.read_text())
    spec["pinned_digests"]["sweep"] = {"1": "0" * 64}
    spec_path.write_text(json.dumps(spec))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert "differs from the pinned" in done.stdout


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.rmtree(_checkout(tmp_path) / "src")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figure",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_self_times_add_up_to_the_root_span():
    recorder = spans.Recorder()

    def leaf():
        time.sleep(0.002)

    def middle():
        time.sleep(0.002)
        leaf()
        leaf()

    leaf = recorder.wrap(leaf, "network:leaf")
    middle = recorder.wrap(middle, "pubsub:middle")
    with recorder.span("bench.cell"):
        with recorder.span("bench.setup"):
            leaf()
        with recorder.span("bench.run"):
            middle()
    analysis = spans.Analysis(recorder)
    assert analysis.problems == []
    assert analysis.by_name["network:leaf"]["calls"] == 3
    assert analysis.attribution_error() < 1e-9
    assert abs(sum(analysis.layer_self.values()) - analysis.root_total) < 1e-9
    assert analysis.layer_self["network"] >= 0.006
    assert analysis.layer_self["pubsub"] >= 0.002
    inside_setup = analysis.outermost(["network:leaf"], under="bench.setup")
    assert 0.002 <= inside_setup < analysis.outermost(["network:leaf"])
    # Nested spans of one name count once at the outermost level.
    assert analysis.outermost(["pubsub:middle", "network:leaf"], under="bench.run") \
        == analysis.by_name["pubsub:middle"]["inclusive_s"]


def test_every_entry_point_exists_in_the_tree():
    """In a fresh interpreter: wrapping mutates the simulator's classes."""
    code = ("import spans, cell; r = spans.Recorder(); "
            "print(spans.install(r, cell.LAYERS + ('campaign',)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
