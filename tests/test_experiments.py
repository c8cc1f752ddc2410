"""Tests for the experiments package (Table I, runner, Figure 5)."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    PAPER,
    PAPER_SIZES,
    ExperimentConfig,
    ExperimentRunner,
    PaperParameters,
    format_figure5,
    format_overhead,
    format_table1,
    measure_setup_overhead,
    run_figure5,
)
from repro.topology import GridTopology


class TestTable1:
    def test_paper_sizes(self):
        assert PAPER_SIZES == (11, 15, 21)

    def test_parameters_self_consistent(self):
        # Psrc = Pdiss + slots * Pslot must hold.
        assert PAPER.frame().period_length == pytest.approx(PAPER.source_period)

    def test_inconsistent_parameters_rejected(self):
        with pytest.raises(ConfigurationError, match="self-consistent"):
            PaperParameters(source_period=6.0)

    def test_das_config_from_table(self):
        cfg = PAPER.das_config()
        assert cfg.setup_periods == 80
        assert cfg.neighbour_discovery_periods == 4
        assert cfg.num_slots == 100

    def test_das_config_override(self):
        assert PAPER.das_config(setup_periods=30).setup_periods == 30

    def test_change_length(self):
        grid = GridTopology(11)
        assert PAPER.change_length(grid, 3) == 7
        assert PAPER.change_length(grid, 5) == 5

    def test_format_table1_lists_all_symbols(self):
        text = format_table1()
        for symbol in ("Psrc", "Pslot", "Pdiss", "slots", "MSP", "NDP", "DT", "SD", "CL"):
            assert symbol in text


class TestRunnerConfig:
    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            ExperimentConfig(algorithm="magic")

    def test_zero_repeats_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one repeat"):
            ExperimentConfig(repeats=0)

    def test_noise_instantiation(self):
        from repro.simulator import CasinoLabNoise

        assert ExperimentConfig(noise="ideal").make_noise() is None
        assert isinstance(ExperimentConfig(noise="casino").make_noise(), CasinoLabNoise)
        with pytest.raises(ConfigurationError, match="unknown noise"):
            ExperimentConfig(noise="static").make_noise()


class TestRunner:
    def test_protectionless_outcome(self, grid5):
        runner = ExperimentRunner(grid5)
        outcome = runner.run(
            ExperimentConfig(algorithm="protectionless", repeats=4, noise="ideal")
        )
        assert outcome.stats.runs == 4
        assert outcome.topology_name == grid5.name
        assert len(outcome.results) == 4

    def test_slp_outcome(self, grid7):
        runner = ExperimentRunner(grid7)
        outcome = runner.run(
            ExperimentConfig(
                algorithm="slp", search_distance=2, repeats=3, noise="ideal"
            )
        )
        assert outcome.stats.runs == 3

    def test_runs_are_seeded(self, grid5):
        runner = ExperimentRunner(grid5)
        cfg = ExperimentConfig(repeats=2, base_seed=7, noise="ideal")
        a = runner.run(cfg)
        b = runner.run(cfg)
        assert [r.captured for r in a.results] == [r.captured for r in b.results]
        assert [r.attacker_path for r in a.results] == [
            r.attacker_path for r in b.results
        ]

    def test_distributed_schedule_construction(self, grid5):
        from repro.experiments import PaperParameters

        params = PaperParameters()
        runner = ExperimentRunner(grid5)
        cfg = ExperimentConfig(
            algorithm="protectionless",
            repeats=1,
            noise="ideal",
            use_distributed=True,
            parameters=params,
        )
        schedule = runner.build_schedule(cfg, seed=0)
        assert schedule.covers(grid5)

    def test_distributed_slp_schedule_construction(self, grid5):
        """The runner's message-level SLP path: full 3-phase setup."""
        from repro.core import check_weak_das
        from repro.experiments import PaperParameters

        # Reduced MSP keeps this quick; the full-scale default is 80.
        params = PaperParameters()
        runner = ExperimentRunner(grid5)
        cfg = ExperimentConfig(
            algorithm="slp",
            search_distance=2,
            repeats=1,
            noise="ideal",
            use_distributed=True,
            parameters=params,
        )
        schedule = runner.build_schedule(cfg, seed=1)
        assert schedule.covers(grid5)
        assert check_weak_das(grid5, schedule).ok

    def test_run_once_end_to_end(self, grid5):
        runner = ExperimentRunner(grid5)
        cfg = ExperimentConfig(algorithm="slp", search_distance=2,
                               repeats=1, noise="ideal")
        result = runner.run_once(cfg, seed=2)
        assert result.periods_run >= 1
        assert result.safety_periods >= result.periods_run


class TestFigure5:
    def test_small_panel(self):
        result = run_figure5(
            search_distance=3, sizes=(11,), repeats=3, noise="ideal"
        )
        assert result.search_distance == 3
        cell = result.cell(11)
        assert 0.0 <= cell.protectionless.capture_ratio <= 1.0
        assert 0.0 <= cell.slp.capture_ratio <= 1.0

    def test_unknown_cell(self):
        result = run_figure5(search_distance=3, sizes=(11,), repeats=2, noise="ideal")
        with pytest.raises(ConfigurationError, match="no cell"):
            result.cell(15)

    def test_format_contains_rows(self):
        result = run_figure5(search_distance=3, sizes=(11,), repeats=2, noise="ideal")
        text = format_figure5(result)
        assert "Figure 5a" in text
        assert "11" in text
        assert "mean reduction" in text


class TestOverheadExperiment:
    def test_measurement(self, grid5):
        m = measure_setup_overhead(
            grid5, seeds=(0,), setup_periods=30, refinement_periods=10,
            search_distance=2,
        )
        assert len(m.per_seed) == 1
        assert m.per_seed[0].slp_messages > 0
        text = format_overhead(m)
        assert "overhead" in text.lower() or "Overhead" in text
