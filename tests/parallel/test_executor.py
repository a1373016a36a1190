"""Unit tests for the executor backends themselves."""

from __future__ import annotations

import os

import pytest

from repro.campaign.executor import ResilientProcessExecutor
from repro.parallel import (
    CellFailure,
    CellFailureError,
    ExecutorReport,
    ExperimentExecutor,
    SerialExecutor,
    get_executor,
    resolve_jobs,
)


def _square(x: int) -> int:
    """Module-level so ProcessPoolExecutor can pickle it."""
    return x * x


def _square_except_three(x: int) -> int:
    if x == 3:
        raise ValueError("three")
    return x * x


def test_serial_map_preserves_order():
    assert SerialExecutor().map(_square, [3, 1, 2]) == [9, 1, 4]


def test_serial_map_empty():
    assert SerialExecutor().map(_square, []) == []


def test_serial_map_report_quarantines_a_raising_cell():
    seen = []
    results, report = SerialExecutor().map_report(
        _square_except_three,
        [2, 3, 4],
        on_result=lambda index, value: seen.append((index, value)),
    )
    # One attempt, no retry; the cells after the failure still run.
    assert results == [4, None, 16]
    assert seen == [(0, 4), (2, 16)]
    assert report.failures == [
        CellFailure(index=1, kind="exception", error="ValueError: three")
    ]
    assert report.failures[0].attempts == 1
    assert report.retries == 0


def test_serial_map_raises_with_partial_results():
    with pytest.raises(CellFailureError) as caught:
        SerialExecutor().map(_square_except_three, [3, 5])
    assert caught.value.results == [None, 25]
    assert [f.index for f in caught.value.failures] == [0]


def test_process_map_preserves_order():
    assert ResilientProcessExecutor(2).map(_square, list(range(8))) == [
        x * x for x in range(8)
    ]


def test_process_map_empty_skips_pool():
    assert ResilientProcessExecutor(2).map(_square, []) == []


def test_process_rejects_nonpositive_jobs():
    with pytest.raises(ValueError):
        ResilientProcessExecutor(0)
    with pytest.raises(ValueError):
        ResilientProcessExecutor(-3)


def test_resolve_jobs():
    assert resolve_jobs(None) == 1
    assert resolve_jobs(1) == 1
    assert resolve_jobs(5) == 5
    assert resolve_jobs(SerialExecutor()) == 1
    assert resolve_jobs(ResilientProcessExecutor(3)) == 3
    assert resolve_jobs(0) == (os.cpu_count() or 1)
    assert resolve_jobs(-1) == (os.cpu_count() or 1)


def test_get_executor_selection(monkeypatch):
    import repro.parallel.executor as executor_module

    monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 4)
    assert isinstance(get_executor(None), SerialExecutor)
    assert isinstance(get_executor(1), SerialExecutor)
    process = get_executor(4)
    assert isinstance(process, ResilientProcessExecutor)
    assert process.jobs == 4
    # The pool keeps its defaults: retries on, hung-worker detection off.
    assert process.max_retries == 2
    assert process.cell_timeout is None
    assert get_executor(0).jobs == 4


def test_get_executor_falls_back_to_serial_when_oversubscribed(
    monkeypatch, caplog
):
    import repro.parallel.executor as executor_module

    monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 2)
    with caplog.at_level("INFO", logger="repro.parallel.executor"):
        fallback = get_executor(4)
    assert isinstance(fallback, SerialExecutor)
    assert any("falling back" in record.message for record in caplog.records)
    # At or below the core count, the pool is still used.
    assert isinstance(get_executor(2), ResilientProcessExecutor)


def test_get_executor_instance_keeps_pool_when_oversubscribed(monkeypatch):
    import repro.parallel.executor as executor_module

    monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 1)
    pool = ResilientProcessExecutor(4)
    assert get_executor(pool) is pool


def test_get_executor_passes_instances_through():
    class Custom(ExperimentExecutor):
        jobs = 7

        def map_report(self, fn, items, on_result=None):
            return [fn(item) for item in items], ExecutorReport()

    custom = Custom()
    assert get_executor(custom) is custom
    assert resolve_jobs(custom) == 7
    # ``map`` comes from the interface, on top of ``map_report``.
    assert custom.map(_square, [2, 3]) == [4, 9]
