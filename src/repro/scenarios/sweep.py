"""Parameter-sweep helpers used by the figure benchmarks.

A sweep runs the same base configuration with one (or more) field varied,
optionally crossed with a set of recovery algorithms -- exactly the
structure of the paper's Figures 4, 5, 6, 8, 9, and 10.

Every cell of a sweep is independent, so both helpers accept ``jobs``:
``jobs=1`` (default) runs serially in process, ``jobs=N`` fans the cells
over N worker processes via :mod:`repro.parallel`, with bit-identical
results in the same order (only ``wall_clock_seconds`` differs).
:mod:`repro.scenarios.experiments` builds every algorithm x value figure
grid with :func:`sweep_algorithms`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.parallel import map_scenarios
from repro.parallel.executor import JobsSpec
from repro.scenarios.config import SimulationConfig
from repro.scenarios.results import RunResult

__all__ = ["sweep", "sweep_algorithms", "SweepPoint"]


class SweepPoint:
    """One (x, algorithm) cell of a sweep with its result."""

    __slots__ = ("x", "algorithm", "result")

    def __init__(self, x: Any, algorithm: str, result: RunResult) -> None:
        self.x = x
        self.algorithm = algorithm
        self.result = result

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<SweepPoint x={self.x} algo={self.algorithm} "
            f"delivery={self.result.delivery_rate:.3f}>"
        )


def _sweep_configs(
    base: SimulationConfig,
    field: Optional[str],
    values: Sequence[Any],
    derive: Optional[Callable[[SimulationConfig, Any], SimulationConfig]],
) -> List[SimulationConfig]:
    """The per-value configs of one sweep, in value order: ``field`` (when
    given) set to each value, then ``derive`` (when given) applied."""
    configs = []
    for value in values:
        config = base if field is None else base.replace(**{field: value})
        if derive is not None:
            config = derive(config, value)
        configs.append(config)
    return configs


def sweep(
    base: SimulationConfig,
    field: str,
    values: Sequence[Any],
    derive: Optional[Callable[[SimulationConfig, Any], SimulationConfig]] = None,
    jobs: JobsSpec = None,
    campaign_dir: Optional[str] = None,
) -> List[SweepPoint]:
    """Run ``base`` once per value of ``field``.

    ``derive`` may adjust the config further per point (e.g. Fig 6 scales
    β together with N); it receives the config *after* the swept field is
    applied and returns the final config.  ``jobs`` selects the executor
    (see :mod:`repro.parallel`); ``campaign_dir`` makes the sweep
    journaled and resumable (see :mod:`repro.campaign`).
    """
    configs = _sweep_configs(base, field, values, derive)
    results = map_scenarios(configs, jobs=jobs, campaign_dir=campaign_dir)
    return [
        SweepPoint(value, config.algorithm, result)
        for value, config, result in zip(values, configs, results)
    ]


def sweep_algorithms(
    base: SimulationConfig,
    algorithms: Sequence[str],
    field: Optional[str] = None,
    values: Sequence[Any] = (),
    derive: Optional[Callable[[SimulationConfig, Any], SimulationConfig]] = None,
    jobs: JobsSpec = None,
    campaign_dir: Optional[str] = None,
) -> Dict[str, List[SweepPoint]]:
    """Cross a sweep with a set of algorithms: ``{algorithm: [points]}``.

    ``field`` and ``derive`` build each value's config as in
    :func:`sweep`; either may be left out (the experiments whose x is not
    a config field, such as a paper β or a churn rate, pass ``derive``
    alone).  With neither, each algorithm runs once at the base
    configuration (``x`` is then ``None``).  The *whole* cross product is
    fanned over ``jobs`` workers at once, so four algorithms saturate four
    cores even when each sweeps only a few values.  ``campaign_dir`` makes
    the grid journaled and resumable (see :mod:`repro.campaign`).
    """
    cells: List[Tuple[str, Any, SimulationConfig]] = []
    for algorithm in algorithms:
        algo_base = base.replace(algorithm=algorithm)
        if field is None and derive is None:
            cells.append((algorithm, None, algo_base))
        else:
            for value, config in zip(
                values, _sweep_configs(algo_base, field, values, derive)
            ):
                cells.append((algorithm, value, config))
    run_results = map_scenarios(
        [config for _, _, config in cells], jobs=jobs, campaign_dir=campaign_dir
    )
    results: Dict[str, List[SweepPoint]] = {algorithm: [] for algorithm in algorithms}
    for (algorithm, value, config), result in zip(cells, run_results):
        results[algorithm].append(SweepPoint(value, config.algorithm, result))
    return results


def series_of(
    points: Iterable[SweepPoint],
    metric: Callable[[RunResult], float],
) -> List[Tuple[Any, float]]:
    """Extract ``(x, metric)`` pairs from sweep points."""
    return [(point.x, metric(point.result)) for point in points]
