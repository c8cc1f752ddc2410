"""Tests for the operational phase: convergecast + eavesdropper."""

import pytest

from repro.app import run_operational_phase
from repro.attacker import AttackerSpec, FollowAnyHeard
from repro.core import Schedule, safety_period
from repro.das import centralized_das_schedule
from repro.errors import ConfigurationError
from repro.mac import TdmaFrame
from repro.simulator import BernoulliNoise, CasinoLabNoise
from repro.topology import GridTopology, LineTopology
from repro.verification import verify_schedule


def line_schedule(line: LineTopology) -> Schedule:
    n = line.length
    slots = {i: i + 1 for i in range(n)}
    parents = {i: i + 1 for i in range(n - 1)}
    parents[n - 1] = None
    return Schedule(slots, parents, sink=n - 1)


class TestAggregation:
    def test_perfect_aggregation_under_ideal_links(self, line5):
        result = run_operational_phase(line5, line_schedule(line5), max_periods=4)
        assert result.aggregation_ratio == pytest.approx(1.0)

    def test_grid_aggregation_complete(self, grid5, grid5_schedule):
        result = run_operational_phase(grid5, grid5_schedule, max_periods=3)
        assert result.aggregation_ratio == pytest.approx(1.0)

    def test_noise_degrades_aggregation(self, grid5, grid5_schedule):
        lossy = run_operational_phase(
            grid5,
            grid5_schedule,
            noise=BernoulliNoise(0.2),
            seed=1,
            max_periods=4,
        )
        assert lossy.aggregation_ratio < 1.0

    def test_every_node_transmits_once_per_period(self, line5):
        result = run_operational_phase(line5, line_schedule(line5), max_periods=3)
        # 4 senders (sink never transmits) x 3 periods.
        assert result.messages_sent == 4 * 3


class TestCapture:
    def test_line_gradient_is_captured(self, line5):
        result = run_operational_phase(line5, line_schedule(line5))
        assert result.captured
        assert result.capture_period is not None
        assert result.attacker_path[0] == line5.sink
        assert result.attacker_path[-1] == line5.source

    def test_capture_stops_run_early(self, line5):
        result = run_operational_phase(line5, line_schedule(line5))
        assert result.periods_run <= result.safety_periods

    def test_reversed_gradient_survives(self, line5):
        s = Schedule({0: 5, 1: 4, 2: 3, 3: 2, 4: 9}, {}, sink=4)
        result = run_operational_phase(line5, s)
        assert not result.captured
        assert result.periods_run == result.safety_periods

    def test_runtime_agrees_with_verifier_under_ideal_links(self, grid5):
        frame = TdmaFrame()
        delta = safety_period(grid5, frame.period_length).periods
        for seed in range(10):
            schedule = centralized_das_schedule(grid5, seed=seed)
            run = run_operational_phase(grid5, schedule, seed=seed)
            verdict = verify_schedule(grid5, schedule, delta)
            assert run.captured == (not verdict.slp_aware), f"seed {seed}"

    def test_attacker_path_is_connected(self, grid5, grid5_schedule):
        result = run_operational_phase(grid5, grid5_schedule, seed=0)
        path = result.attacker_path
        for a, b in zip(path, path[1:]):
            assert grid5.are_linked(a, b)

    def test_custom_attacker_start(self, line5):
        result = run_operational_phase(
            line5, line_schedule(line5), attacker_start=1
        )
        assert result.attacker_path[0] == 1
        assert result.captured  # one hop from the source

    def test_weaker_attacker_spec(self, grid5, grid5_schedule):
        spec = AttackerSpec(messages_per_move=2, decision=FollowAnyHeard())
        result = run_operational_phase(
            grid5, grid5_schedule, attacker=spec, seed=3
        )
        assert result.periods_run >= 1  # runs to completion either way


class TestConfiguration:
    def test_safety_period_budget(self, line5):
        # Δss = 4 -> ceil(1.5 * 5) = 8 periods.
        s = Schedule({0: 5, 1: 4, 2: 3, 3: 2, 4: 9}, {}, sink=4)
        result = run_operational_phase(line5, s)
        assert result.safety_periods == 8

    def test_max_periods_override(self, line5):
        s = Schedule({0: 5, 1: 4, 2: 3, 3: 2, 4: 9}, {}, sink=4)
        result = run_operational_phase(line5, s, max_periods=2)
        assert result.periods_run == 2

    def test_zero_periods_rejected(self, line5):
        with pytest.raises(ConfigurationError, match="at least one period"):
            run_operational_phase(line5, line_schedule(line5), max_periods=0)

    def test_frame_widens_for_large_schedules(self, line5):
        # 150 distinct slots exceed the default 100-slot frame.
        big = Schedule(
            {i: (i + 1) * 30 for i in range(5)},
            {i: i + 1 for i in range(4)},
            sink=4,
        )
        result = run_operational_phase(line5, big, max_periods=1)
        assert result.periods_run == 1

    def test_total_loss_prevents_capture(self):
        """A deaf attacker (every frame lost) never moves, so it never
        captures — moderate loss, by contrast, may *divert* the attacker
        onto capturing paths, which is exactly the run-to-run variance
        the evaluation relies on."""
        grid = GridTopology(5)
        for seed in range(6):
            schedule = centralized_das_schedule(grid, seed=seed)
            result = run_operational_phase(
                grid, schedule, noise=BernoulliNoise(1.0 - 1e-12), seed=seed
            )
            assert not result.captured
            assert result.attacker_path == (grid.sink,)

    def test_reproducible_runs(self, grid5, grid5_schedule):
        a = run_operational_phase(
            grid5, grid5_schedule, noise=CasinoLabNoise(), seed=11
        )
        b = run_operational_phase(
            grid5, grid5_schedule, noise=CasinoLabNoise(), seed=11
        )
        assert a.attacker_path == b.attacker_path
        assert a.captured == b.captured
