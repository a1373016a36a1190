"""Tests for the experiment definitions (scaling rules and plumbing).

The full experiments are exercised by ``benchmarks/``; here we verify the
cheap invariants: scale selection, the buffer-equivalence rule, and the
result container -- plus one miniature end-to-end experiment.
"""

from __future__ import annotations

import pytest

from repro.scenarios import experiments
from repro.scenarios.config import SimulationConfig
from repro.scenarios.experiments import (
    ExperimentResult,
    base_config,
    equivalent_buffer,
    fig3a_lossy_delivery,
    scale_mode,
)


class TestScaling:
    def test_default_mode_is_bench(self, monkeypatch):
        monkeypatch.delenv("REPRO_PAPER_SCALE", raising=False)
        assert scale_mode() == "bench"
        config = base_config()
        assert config.n_dispatchers == 50
        assert config.n_patterns == 35

    def test_paper_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PAPER_SCALE", "1")
        assert scale_mode() == "paper"
        config = base_config()
        assert config.n_dispatchers == 100
        assert config.n_patterns == 70
        assert config.sim_time == 25.0
        assert config.buffer_size == 1500

    def test_subscribers_per_pattern_preserved(self, monkeypatch):
        monkeypatch.delenv("REPRO_PAPER_SCALE", raising=False)
        bench = base_config()
        paper = SimulationConfig()
        assert bench.subscribers_per_pattern == pytest.approx(
            paper.subscribers_per_pattern, rel=0.01
        )

    def test_load_variants(self, monkeypatch):
        monkeypatch.delenv("REPRO_PAPER_SCALE", raising=False)
        assert base_config("high").publish_rate == 50.0
        assert base_config("low").publish_rate == 5.0
        with pytest.raises(ValueError):
            base_config("medium")

    def test_equivalent_buffer_preserves_persistence(self, monkeypatch):
        monkeypatch.delenv("REPRO_PAPER_SCALE", raising=False)
        bench = base_config()
        paper = SimulationConfig()
        for paper_beta in (500, 1500, 4000):
            bench_beta = equivalent_buffer(bench, paper_beta)
            paper_seconds = paper_beta / paper.estimated_cache_fill_rate()
            bench_seconds = bench_beta / bench.estimated_cache_fill_rate()
            assert bench_seconds == pytest.approx(paper_seconds, rel=0.05)

    def test_equivalent_buffer_monotone(self):
        bench = base_config()
        betas = [equivalent_buffer(bench, b) for b in (500, 1500, 4000)]
        assert betas == sorted(betas)
        assert betas[0] < betas[-1]


class TestExperimentResult:
    def test_container_accessors(self):
        result = ExperimentResult(
            "FigT", "title", "x", [1, 2], curves={"c": [0.1, 0.2]}
        )
        assert result.curve("c") == [0.1, 0.2]
        assert result.final("c") == 0.2
        assert "FigT" in result.to_table()


class TestMiniatureExperiment:
    def test_fig3a_runs_with_subset(self, monkeypatch):
        # Shrink the scenario drastically so this stays a unit test.
        monkeypatch.delenv("REPRO_PAPER_SCALE", raising=False)
        tiny = SimulationConfig(
            n_dispatchers=10,
            n_patterns=8,
            publish_rate=10.0,
            sim_time=2.0,
            measure_start=0.3,
            measure_end=1.2,
            buffer_size=60,
        )
        monkeypatch.setattr(
            experiments, "base_config", lambda load="high", seed=42: tiny
        )
        result = fig3a_lossy_delivery(
            error_rate=0.2, algorithms=("none", "combined-pull")
        )
        rates = dict(zip(result.x_values, result.curves["delivery_rate"]))
        assert rates["combined-pull"] > rates["none"]


#: ``ExperimentResult.curves`` of every algorithm x x-value figure at a
#: tiny scale: any change to how a grid is built, run or regrouped into
#: curves shows up here.
PINNED_GRID_CURVES = {
    "fig4_buffer_sweep": {
        "push": [0.9952718676122931, 0.9952718676122931],
        "combined-pull": [0.9810874704491725, 0.9810874704491725],
    },
    "fig4_interval_sweep": {
        "push": [1.0, 0.9929078014184397],
        "combined-pull": [0.9645390070921985, 0.9692671394799054],
    },
    "fig6_scalability": {
        "push": [0.972972972972973, 0.9529411764705882],
        "combined-pull": [0.9459459459459459, 0.8705882352941177],
    },
    "fig8_patterns_delivery": {
        "push": [1.0, 0.9914821124361158],
        "combined-pull": [0.9781659388646288, 0.9880749574105622],
    },
    "fig9a_overhead_scale": {
        "push:msgs/disp": [82.5, 111.16666666666667],
        "push:ratio": [4.313725490196078, 3.3602015113350125],
        "combined-pull:msgs/disp": [0.625, 2.5833333333333335],
        "combined-pull:ratio": [0.03205128205128205, 0.07579462102689487],
    },
    "fig9b_overhead_patterns": {
        "push:msgs/disp": [99.5, 173.5],
        "push:ratio": [1.376210235131397, 1.4082792207792207],
        "combined-pull:msgs/disp": [14.3, 34.4],
        "combined-pull:ratio": [0.1919463087248322, 0.2723673792557403],
    },
    "fig10_overhead_error_rate": {
        "push": [153.7, 139.6],
        "combined-pull": [14.8, 46.5],
    },
    "figX_churn_delivery": {
        "push": [1.0, 0.9948586118251928],
        "combined-pull": [0.9952718676122931, 0.9280205655526992],
    },
}

_GRID_ALGORITHMS = ("push", "combined-pull")
_GRID_CALLS = {
    "fig4_buffer_sweep": lambda: experiments.fig4_buffer_sweep(
        _GRID_ALGORITHMS, (500, 1500)
    ),
    "fig4_interval_sweep": lambda: experiments.fig4_interval_sweep(
        _GRID_ALGORITHMS, (0.02, 0.05)
    ),
    "fig6_scalability": lambda: experiments.fig6_scalability(
        _GRID_ALGORITHMS, (8, 12)
    ),
    "fig8_patterns_delivery": lambda: experiments.fig8_patterns_delivery(
        "high", _GRID_ALGORITHMS, (1, 3)
    ),
    "fig9a_overhead_scale": lambda: experiments.fig9a_overhead_scale(
        _GRID_ALGORITHMS, (8, 12)
    ),
    "fig9b_overhead_patterns": lambda: experiments.fig9b_overhead_patterns(
        _GRID_ALGORITHMS, (1, 3)
    ),
    "fig10_overhead_error_rate": lambda: experiments.fig10_overhead_error_rate(
        "low", _GRID_ALGORITHMS, (0.05, 0.2)
    ),
    "figX_churn_delivery": lambda: experiments.figX_churn_delivery(
        _GRID_ALGORITHMS, (0.0, 2.0)
    ),
}


class TestGridCurvesPinned:
    @pytest.mark.parametrize("name", sorted(PINNED_GRID_CURVES))
    def test_curves_match_recorded_values(self, name, monkeypatch):
        monkeypatch.delenv("REPRO_PAPER_SCALE", raising=False)
        tiny = SimulationConfig(
            n_dispatchers=10,
            n_patterns=8,
            publish_rate=10.0,
            sim_time=2.0,
            measure_start=0.3,
            measure_end=1.2,
            buffer_size=60,
            error_rate=0.1,
        )
        monkeypatch.setattr(
            experiments,
            "base_config",
            lambda load="high", seed=42: tiny.replace(seed=seed),
        )
        result = _GRID_CALLS[name]()
        assert result.curves == PINNED_GRID_CURVES[name]
        # Curve order is part of the contract: tables print in it.
        assert list(result.curves) == list(PINNED_GRID_CURVES[name])
        assert list(result.results) == list(_GRID_ALGORITHMS)
