"""Tests for the centralised 3-phase pipeline and its parameters."""

import pytest

from repro.core import check_strong_das, check_weak_das
from repro.das import centralized_das_schedule
from repro.errors import ConfigurationError
from repro.slp import (
    PAPER_SEARCH_DISTANCES,
    SlpParameters,
    build_slp_schedule,
    default_change_length,
)
from repro.topology import paper_grid


class TestParameters:
    def test_paper_search_distances(self):
        assert PAPER_SEARCH_DISTANCES == (3, 5)

    def test_default_change_length_formula(self):
        grid = paper_grid(11)  # Δss = 10
        assert default_change_length(grid, 3) == 7
        assert default_change_length(grid, 5) == 5

    def test_change_length_clamped_to_one(self, grid5):
        # Δss = 4, SD = 4 -> clamp at 1.
        assert default_change_length(grid5, 4) == 1
        assert default_change_length(grid5, 10) == 1

    def test_resolved_change_length(self, grid7):
        assert SlpParameters(3).resolved_change_length(grid7) == max(
            1, grid7.source_sink_distance() - 3
        )
        assert SlpParameters(3, change_length=2).resolved_change_length(grid7) == 2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SlpParameters(search_distance=0)
        with pytest.raises(ConfigurationError):
            SlpParameters(search_distance=3, change_length=0)


class TestBuild:
    def test_refined_schedule_is_weak_das(self, grid7):
        for seed in range(6):
            build = build_slp_schedule(grid7, SlpParameters(3), seed=seed)
            result = check_weak_das(grid7, build.schedule)
            assert result.ok, f"seed {seed}: {result.summary()}"

    def test_baseline_is_strong_das(self, grid7):
        build = build_slp_schedule(grid7, SlpParameters(3), seed=0)
        assert check_strong_das(grid7, build.baseline).ok

    def test_supplied_baseline_is_used(self, grid7):
        base = centralized_das_schedule(grid7, seed=42)
        build = build_slp_schedule(grid7, seed=0, baseline=base)
        assert build.baseline is base

    def test_reproducible(self, grid7):
        a = build_slp_schedule(grid7, SlpParameters(3), seed=5)
        b = build_slp_schedule(grid7, SlpParameters(3), seed=5)
        assert a.schedule == b.schedule
        assert a.search == b.search

    def test_slots_changed_counts_refinement_footprint(self, grid7):
        build = build_slp_schedule(grid7, SlpParameters(3), seed=1)
        assert build.slots_changed >= len(build.refinement.decoy_path)
        assert build.slots_changed < grid7.num_nodes

    def test_default_parameters(self, grid7):
        build = build_slp_schedule(grid7, seed=0)
        assert build.search.path  # search ran with SD = 3 default
