"""Tests for Phase 3 — slot refinement and the decoy gradient."""

import pytest

from repro.core import check_weak_das
from repro.das import centralized_das_schedule
from repro.errors import ProtocolError
from repro.slp import locate_redirection_node, refine_slots


def build(grid, seed, sd=3, cl=4):
    schedule = centralized_das_schedule(grid, seed=seed)
    search = locate_redirection_node(grid, schedule, search_distance=sd)
    refinement = refine_slots(grid, schedule, search, change_length=cl, seed=seed)
    return schedule, search, refinement


class TestRefinement:
    def test_result_is_weak_das(self, grid7):
        for seed in range(8):
            _, _, refinement = build(grid7, seed)
            result = check_weak_das(grid7, refinement.schedule)
            assert result.ok, f"seed {seed}: {result.summary()}"

    def test_decoy_path_is_connected_to_start(self, grid7):
        for seed in range(5):
            _, search, refinement = build(grid7, seed)
            chain = [search.start_node, *refinement.decoy_path]
            for a, b in zip(chain, chain[1:]):
                assert grid7.are_linked(a, b)

    def test_decoy_length_bounded_by_change_length(self, grid7):
        for cl in (1, 2, 5):
            _, _, refinement = build(grid7, seed=0, cl=cl)
            assert 1 <= len(refinement.decoy_path) <= cl

    def test_first_decoy_is_spare_parent(self, grid7):
        schedule, search, refinement = build(grid7, seed=1)
        first = refinement.decoy_path[0]
        assert first in grid7.shortest_path_children(search.start_node)
        assert first != schedule.parent_of(search.start_node)

    def test_decoy_gradient_attracts_attacker(self, grid7):
        """A slot-gradient attacker reaching the start node must step
        into the diversion basin (a decoy node or a cascaded member of a
        decoy subtree) — the paper's redirection requirement: "For the
        attacker to move to n first, the slot value of n needs to be
        smaller than all the other nodes in m's neighbourhood"."""
        from repro.slp.refine import _subtree

        for seed in range(6):
            _, search, refinement = build(grid7, seed)
            refined = refinement.schedule
            start = search.start_node
            basin = set()
            for decoy in refinement.decoy_path:
                basin |= _subtree(refined, decoy)
            audible = [
                m for m in grid7.neighbours(start) if m != grid7.sink
            ]
            next_hop = min(
                audible, key=lambda m: (refined.slot_of(m), m)
            )
            assert next_hop in basin, (
                f"seed {seed}: attacker at {start} moves to {next_hop}, "
                f"outside the basin {sorted(basin)}"
            )

    def test_parents_unchanged(self, grid7):
        schedule, _, refinement = build(grid7, seed=2)
        assert refinement.schedule.parents() == schedule.parents()

    def test_slots_stay_positive(self, grid7):
        _, _, refinement = build(grid7, seed=3)
        assert min(refinement.schedule.slots().values()) >= 1

    def test_cascade_counted(self, grid7):
        _, _, refinement = build(grid7, seed=4)
        assert refinement.cascade_changes >= 0

    def test_change_length_validation(self, grid7):
        schedule = centralized_das_schedule(grid7, seed=0)
        search = locate_redirection_node(grid7, schedule, search_distance=3)
        with pytest.raises(ProtocolError, match="at least 1"):
            refine_slots(grid7, schedule, search, change_length=0)

    def test_seed_reproducibility(self, grid7):
        _, _, a = build(grid7, seed=7)
        _, _, b = build(grid7, seed=7)
        assert a.schedule == b.schedule
        assert a.decoy_path == b.decoy_path

    def test_avoid_source_pull_keeps_decoy_off_source(self, grid7):
        """With the default policy the decoy path never reaches the
        source itself."""
        for seed in range(8):
            _, _, refinement = build(grid7, seed)
            assert grid7.source not in refinement.decoy_path
