"""run_campaign: resume determinism, chaos equivalence, quarantine report.

The acceptance bar for the campaign runtime: however a sweep is
interrupted or sabotaged -- scripted worker kills, hangs past the
deadline, transient raises, or plain partial execution -- the merged
``RunResult.signature()``s must come out byte-identical to one
uninterrupted in-process serial run, with every cell accounted for.
"""

from __future__ import annotations

import pytest

import repro.parallel.executor as executor_module
import repro.scenarios.runner as runner_module
from repro.campaign.chaos import ChaosEvent, ChaosExecutor
from repro.campaign.executor import ResilientProcessExecutor
from repro.campaign.journal import CampaignJournal
from repro.campaign.runtime import run_campaign
from repro.parallel.executor import CellFailure, CellFailureError, SerialExecutor
from repro.parallel import map_scenarios

from tests.campaign.conftest import tiny_grid


def signatures(results):
    return [result.signature() for result in results]


class TestSerialResume:
    def test_partial_run_then_resume_is_bit_identical(
        self, tmp_path, reference_results
    ):
        configs = tiny_grid()
        first = run_campaign(configs[:2], tmp_path)
        assert first.report.executed == 2 and first.report.skipped == 0

        # Resume over the full grid: the two journaled cells are served
        # from disk, the other two run fresh.
        second = run_campaign(configs, tmp_path)
        assert second.report.skipped == 2
        assert second.report.executed == 2
        assert second.report.failures == []
        assert signatures(second.results) == signatures(reference_results)

        # A third run is a pure journal replay.
        third = run_campaign(configs, tmp_path)
        assert third.report.skipped == 4 and third.report.executed == 0
        assert signatures(third.results) == signatures(reference_results)

    def test_completed_campaign_is_compacted(self, tmp_path):
        configs = tiny_grid(2)
        run_campaign(configs, tmp_path)
        journal = CampaignJournal(tmp_path)
        assert journal.journal_path.exists()
        assert list(journal.cells_dir.glob("*.ndjson")) == []
        assert len(journal.load()) == 2

    def test_duplicate_configs_share_one_cell(self, tmp_path):
        configs = tiny_grid(2)
        outcome = run_campaign(configs + [configs[0]], tmp_path)
        assert outcome.report.total == 3
        assert outcome.report.executed == 2  # unique cells only
        assert (
            outcome.results[0].signature() == outcome.results[2].signature()
        )


    def test_serial_failure_is_quarantined_then_superseded(
        self, tmp_path, monkeypatch, reference_results
    ):
        # In process, a raising cell gets exactly one attempt: it is
        # quarantined with a failed/ record while its siblings journal.
        configs = tiny_grid()
        real_run = runner_module.run_scenario

        def run_or_raise(config):
            if config.seed == 2:
                raise RuntimeError("scripted failure")
            return real_run(config)

        monkeypatch.setattr(runner_module, "run_scenario", run_or_raise)
        broken = run_campaign(configs, tmp_path)
        assert broken.report.failures == [
            CellFailure(
                index=1,
                kind="exception",
                error="RuntimeError: scripted failure",
                attempts=1,
            )
        ]
        assert broken.report.retries == 0
        assert broken.results[1] is None
        journal = CampaignJournal(tmp_path)
        [record] = journal.failures().values()
        assert record["kind"] == "exception"
        assert record["attempts"] == 1
        assert len(journal.load()) == 3

        monkeypatch.undo()
        resumed = run_campaign(configs, tmp_path)
        assert resumed.report.skipped == 3
        assert resumed.report.executed == 1
        assert resumed.report.failures == []
        assert signatures(resumed.results) == signatures(reference_results)
        assert journal.failures() == {}


class TestChaosEquivalence:
    def test_jobs4_sweep_with_scripted_kill_matches_serial(
        self, tmp_path, reference_results
    ):
        # A worker SIGKILLs itself mid-cell: the broken pool charges every
        # in-flight cell (victim and bystanders are indistinguishable), the
        # pool is rebuilt, and the sweep still converges bit-identically.
        configs = tiny_grid()
        executor = ChaosExecutor(
            4,
            [ChaosEvent(0, "kill", attempt=1)],
            max_retries=3,
            backoff_base=0.0,
        )
        outcome = run_campaign(configs, tmp_path, executor=executor)
        report = outcome.report
        assert report.failures == []
        assert report.worker_crashes >= 1
        assert report.pool_rebuilds >= 1
        assert report.retries >= 1
        assert signatures(outcome.results) == signatures(reference_results)

    def test_jobs4_sweep_with_hang_and_raise_matches_serial(
        self, tmp_path, reference_results
    ):
        # The two pool-preserving fault families together: a transient
        # raise (exception retry) and a hang past the per-cell deadline
        # (reaper kill + timeout retry).  Neither breaks the pool, so the
        # counters are exact.
        configs = tiny_grid()
        executor = ChaosExecutor(
            4,
            [
                ChaosEvent(1, "raise", attempt=1),
                ChaosEvent(2, "hang", attempt=1),
            ],
            cell_timeout=3.0,
            max_retries=3,
            backoff_base=0.0,
        )
        outcome = run_campaign(configs, tmp_path, executor=executor)
        report = outcome.report
        assert report.failures == []
        assert report.worker_crashes == 0
        assert report.timeouts == 1
        assert report.retries == 2  # one raise retry + one timeout retry
        assert report.pool_rebuilds == 1  # the reaper's kill-and-rebuild
        assert signatures(outcome.results) == signatures(reference_results)

    def test_chaos_interrupted_campaign_resumes_clean(
        self, tmp_path, reference_results
    ):
        # Every attempt of cell 3 raises: it is quarantined, the other
        # cells land in the journal, and a plain serial resume finishes
        # the sweep bit-identically.
        configs = tiny_grid()
        events = [ChaosEvent(3, "raise", attempt=a) for a in (1, 2)]
        executor = ChaosExecutor(2, events, max_retries=1, backoff_base=0.0)
        broken = run_campaign(configs, tmp_path, executor=executor)
        assert [f.index for f in broken.report.failures] == [3]
        assert broken.results[3] is None
        with pytest.raises(CellFailureError):
            broken.raise_on_failures()
        journal = CampaignJournal(tmp_path)
        assert len(journal.failures()) == 1

        resumed = run_campaign(configs, tmp_path)
        assert resumed.report.skipped == 3
        assert resumed.report.executed == 1
        assert resumed.report.failures == []
        assert signatures(resumed.results) == signatures(reference_results)
        # Success on resume supersedes the quarantine record.
        assert journal.failures() == {}


class TestQuarantineReporting:
    def test_always_failing_cell_is_reported_never_dropped(self, tmp_path):
        configs = tiny_grid(3)
        events = [ChaosEvent(1, "raise", attempt=a) for a in (1, 2, 3)]
        executor = ChaosExecutor(2, events, max_retries=2, backoff_base=0.0)
        outcome = run_campaign(configs, tmp_path, executor=executor)
        report = outcome.report
        assert report.total == 3
        assert [f.index for f in report.failures] == [1]
        assert report.failures[0].attempts == 3
        assert report.failures[0].kind == "exception"
        assert outcome.results[1] is None
        assert outcome.results[0] is not None and outcome.results[2] is not None
        assert "quarantined" in report.describe()
        # Quarantine is durable: visible to campaign status via failed/.
        record = list(CampaignJournal(tmp_path).failures().values())[0]
        assert record["kind"] == "exception"
        assert record["attempts"] == 3


class TestMapScenariosRouting:
    def test_campaign_dir_makes_map_scenarios_resumable(
        self, tmp_path, reference_results
    ):
        configs = tiny_grid(2)
        first = map_scenarios(configs, jobs=1, campaign_dir=tmp_path)
        second = map_scenarios(configs, jobs=1, campaign_dir=tmp_path)
        assert signatures(first) == signatures(reference_results[:2])
        assert signatures(second) == signatures(first)
        # Second call was served from the journal: still exactly 2 cells.
        assert len(CampaignJournal(tmp_path).load()) == 2

    def test_oversubscribed_campaign_runs_serially(
        self, tmp_path, monkeypatch, reference_results
    ):
        # jobs above the core count picks the serial executor for a
        # campaign exactly as it does without one.
        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 2)
        used = []
        serial_map_report = SerialExecutor.map_report

        def spy(self, fn, items, on_result=None):
            used.append(type(self).__name__)
            return serial_map_report(self, fn, items, on_result)

        def no_pool(self, fn, items, on_result=None):
            raise AssertionError("an oversubscribed campaign spawned a pool")

        monkeypatch.setattr(SerialExecutor, "map_report", spy)
        monkeypatch.setattr(ResilientProcessExecutor, "map_report", no_pool)
        configs = tiny_grid(2)
        results = map_scenarios(configs, jobs=4, campaign_dir=tmp_path)
        assert used == ["SerialExecutor"]
        assert signatures(results) == signatures(reference_results[:2])
