"""Parallel experiment execution.

The scenario layer fans independent (config, seed) cells -- sweep points,
algorithm crosses, replication seeds -- over an executor that
:func:`get_executor` picks from a ``jobs=`` value:

* :class:`SerialExecutor` -- one worker, or more workers than the host
  has cores; runs cells in order, in process.
* :class:`~repro.campaign.executor.ResilientProcessExecutor` -- otherwise;
  the one process pool, which retries crashed, hung and raising cells.

Every backend implements one contract, ``map_report``, and preserves
submission order.  Because every simulation is a pure function of its
:class:`~repro.scenarios.config.SimulationConfig` (no global state, no
wall-clock reads, no hash-randomized iteration on the result path), both
produce **bit-identical** results: ``jobs=4`` and ``jobs=1`` differ only
in ``RunResult.wall_clock_seconds``.  The tests in ``tests/parallel/``
assert exactly that.

Failed cells surface as structured :class:`CellFailure` records inside a
:class:`CellFailureError` that carries the ordered partial results --
one bad cell never destroys its completed siblings.  With
``campaign_dir=``, :func:`map_scenarios` also journals every cell so a
killed sweep resumes (see :mod:`repro.campaign`).
"""

from repro.parallel.executor import (
    CellFailure,
    CellFailureError,
    ExecutorReport,
    ExperimentExecutor,
    SerialExecutor,
    get_executor,
    map_scenarios,
    resolve_jobs,
)

__all__ = [
    "CellFailure",
    "CellFailureError",
    "ExecutorReport",
    "ExperimentExecutor",
    "SerialExecutor",
    "get_executor",
    "map_scenarios",
    "resolve_jobs",
]
