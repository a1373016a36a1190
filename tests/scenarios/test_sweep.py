"""Tests for the sweep helpers."""

from __future__ import annotations

import pytest

from repro.scenarios.config import SimulationConfig
from repro.scenarios.sweep import SweepPoint, series_of, sweep, sweep_algorithms

TINY = SimulationConfig(
    n_dispatchers=8,
    n_patterns=6,
    publish_rate=8.0,
    sim_time=1.5,
    measure_start=0.2,
    measure_end=1.0,
    buffer_size=40,
    error_rate=0.0,
    algorithm="none",
)


class TestSweep:
    def test_one_point_per_value(self):
        points = sweep(TINY, "error_rate", [0.0, 0.3])
        assert [p.x for p in points] == [0.0, 0.3]
        assert points[0].result.delivery_rate == 1.0
        assert points[1].result.delivery_rate < 1.0

    def test_derive_hook_applies_after_field(self):
        captured = []

        def derive(config, value):
            captured.append((config.n_dispatchers, value))
            return config.replace(buffer_size=config.n_dispatchers * 2)

        points = sweep(TINY, "n_dispatchers", [4, 6], derive=derive)
        assert captured == [(4, 4), (6, 6)]
        assert points[0].result.config.buffer_size == 8

    def test_metric_extraction(self):
        points = sweep(TINY, "error_rate", [0.0])
        pairs = series_of(points, lambda run: run.delivery_rate)
        assert pairs == [(0.0, 1.0)]


class TestSweepAlgorithms:
    def test_cross_product(self):
        results = sweep_algorithms(
            TINY, ["none", "push"], field="error_rate", values=[0.0, 0.2]
        )
        assert set(results) == {"none", "push"}
        assert len(results["push"]) == 2
        assert all(isinstance(p, SweepPoint) for p in results["push"])

    def test_derive_alone_sets_each_value(self):
        results = sweep_algorithms(
            TINY,
            ["none"],
            values=[10, 20],
            derive=lambda config, beta: config.replace(buffer_size=beta * 2),
        )
        assert [p.x for p in results["none"]] == [10, 20]
        assert [p.result.config.buffer_size for p in results["none"]] == [20, 40]

    def test_no_field_runs_base_once(self):
        results = sweep_algorithms(TINY, ["none"])
        assert len(results["none"]) == 1
        assert results["none"][0].x is None
