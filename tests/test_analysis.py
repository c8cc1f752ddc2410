"""Tests for the gradient-field analysis module."""

import pytest

from repro.analysis import (
    descent_path,
    gradient_field,
    gradient_successor,
    predicts_capture,
    refinement_footprint,
)
from repro.core import Schedule, safety_period
from repro.das import centralized_das_schedule
from repro.errors import VerificationError
from repro.mac import TdmaFrame
from repro.slp import SlpParameters, build_slp_schedule
from repro.topology import GridTopology
from repro.verification import verify_schedule


def line_schedule(line):
    n = line.length
    return Schedule(
        {i: i + 1 for i in range(n)},
        {i: i + 1 for i in range(n - 1)},
        sink=n - 1,
    )


class TestSuccessor:
    def test_descends_toward_smaller_slots(self, line5):
        s = line_schedule(line5)
        assert gradient_successor(line5, s, 4) == 3
        assert gradient_successor(line5, s, 3) == 2

    def test_local_minimum_camps(self, line5):
        s = line_schedule(line5)
        assert gradient_successor(line5, s, 0) is None

    def test_matches_attacker_next_hop(self, grid5, grid5_schedule):
        from repro.app import run_operational_phase

        run = run_operational_phase(grid5, grid5_schedule, seed=0)
        path = run.attacker_path
        for a, b in zip(path, path[1:]):
            assert gradient_successor(grid5, grid5_schedule, a) == b


class TestDescentPath:
    def test_line_descent(self, line5):
        s = line_schedule(line5)
        assert descent_path(line5, s) == (4, 3, 2, 1, 0)

    def test_max_steps_truncates(self, line5):
        s = line_schedule(line5)
        assert descent_path(line5, s, max_steps=2) == (4, 3, 2)

    def test_unknown_start_rejected(self, line5):
        with pytest.raises(VerificationError):
            descent_path(line5, line_schedule(line5), start=99)

    def test_descent_slots_strictly_decrease(self, grid5, grid5_schedule):
        path = descent_path(grid5, grid5_schedule)
        slots = [
            grid5_schedule.slot_of(n) for n in path if n != grid5.sink
        ]
        assert slots == sorted(slots, reverse=True)
        assert len(set(slots)) == len(slots)


class TestGradientField:
    def test_every_node_has_a_basin(self, grid5, grid5_schedule):
        field = gradient_field(grid5, grid5_schedule)
        assert set(field.basin_of) == set(grid5.nodes)
        for minimum in field.minima:
            assert field.successor[minimum] is None

    def test_basins_are_consistent_with_successors(self, grid5, grid5_schedule):
        field = gradient_field(grid5, grid5_schedule)
        for node in grid5.nodes:
            nxt = field.successor[node]
            if nxt is not None:
                assert field.basin_of[node] == field.basin_of[nxt]

    def test_basins_cover_network(self, grid5, grid5_schedule):
        field = gradient_field(grid5, grid5_schedule)
        assert set(field.basin_of) == set(grid5.nodes)
        assert set(field.basin_of.values()) <= set(field.minima)


class TestCapturePrediction:
    def test_agrees_with_verifier(self):
        grid = GridTopology(7)
        frame = TdmaFrame()
        delta = safety_period(grid, frame.period_length).periods
        for seed in range(15):
            schedule = centralized_das_schedule(grid, seed=seed)
            fast = predicts_capture(grid, schedule, delta)
            formal = not verify_schedule(grid, schedule, delta).slp_aware
            assert fast == formal, f"seed {seed}"

    def test_safety_horizon_matters(self, line5):
        s = line_schedule(line5)
        assert predicts_capture(line5, s, safety_periods=4)
        assert not predicts_capture(line5, s, safety_periods=3)


class TestFootprint:
    def test_refinement_redirects_descent(self, grid7):
        for seed in range(6):
            base = centralized_das_schedule(grid7, seed=seed)
            refined = build_slp_schedule(
                grid7, SlpParameters(2), seed=seed, baseline=base
            ).schedule
            report = refinement_footprint(grid7, base, refined)
            assert report["redirected_nodes"], "refinement changed nothing"
            assert report["sink_descent_after"][0] == grid7.sink

    def test_identity_footprint_is_empty(self, grid5, grid5_schedule):
        report = refinement_footprint(grid5, grid5_schedule, grid5_schedule)
        assert report["redirected_nodes"] == ()
        assert not report["descent_changed"]
