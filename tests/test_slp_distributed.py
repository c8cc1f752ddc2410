"""Tests for the distributed 3-phase SLP protocol."""

import pytest

from repro.core import check_weak_das
from repro.das import DasProtocolConfig
from repro.errors import ProtocolError
from repro.slp import SlpProtocolConfig, run_slp_setup


def fast_config(setup=35, refine=12, sd=2, cl=3) -> SlpProtocolConfig:
    return SlpProtocolConfig(
        das=DasProtocolConfig(setup_periods=setup),
        search_distance=sd,
        change_length=cl,
        refinement_periods=refine,
    )


class TestConfig:
    def test_validation(self):
        with pytest.raises(ProtocolError):
            SlpProtocolConfig(search_distance=0)
        with pytest.raises(ProtocolError):
            SlpProtocolConfig(change_length=0)
        with pytest.raises(ProtocolError):
            SlpProtocolConfig(refinement_periods=1)


class TestDistributedSlp:
    def test_produces_weak_das(self, grid5):
        for seed in range(3):
            result = run_slp_setup(grid5, config=fast_config(), seed=seed)
            check = check_weak_das(grid5, result.schedule)
            assert check.ok, f"seed {seed}: {check.summary()}"

    def test_search_and_change_messages_sent(self, grid5):
        result = run_slp_setup(grid5, config=fast_config(), seed=1)
        assert result.search_messages >= 1
        assert result.change_messages >= 1

    def test_start_node_selected(self, grid5):
        result = run_slp_setup(grid5, config=fast_config(), seed=1)
        assert result.start_node is not None
        assert result.start_node in grid5

    def test_decoy_nodes_recruited(self, grid5):
        result = run_slp_setup(grid5, config=fast_config(), seed=1)
        assert 1 <= len(result.decoy_path) <= 3

    def test_overhead_is_negligible(self, grid5):
        """The paper's claim: search + change messages are a rounding
        error against the Phase 1 dissemination volume."""
        result = run_slp_setup(grid5, config=fast_config(), seed=2)
        extra = result.search_messages + result.change_messages
        assert extra < 0.05 * result.messages_sent

    def test_default_config_uses_table1_change_length(self, grid7):
        result = run_slp_setup(grid7, seed=0)
        assert result.schedule.covers(grid7)

    def test_reproducible(self, grid5):
        a = run_slp_setup(grid5, config=fast_config(), seed=7)
        b = run_slp_setup(grid5, config=fast_config(), seed=7)
        assert a.schedule == b.schedule
        assert a.decoy_path == b.decoy_path

    def test_schedule_differs_from_phase1_only(self, grid5):
        """Refinement must actually change some slots."""
        from repro.das import run_das_setup

        das_only = run_das_setup(
            grid5, config=DasProtocolConfig(setup_periods=35), seed=3
        ).schedule
        slp = run_slp_setup(grid5, config=fast_config(setup=35), seed=3).schedule
        base = das_only.compressed().slots()
        refined = slp.compressed().slots()
        assert base != refined
