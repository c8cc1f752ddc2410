"""Unit tests for the centralised DAS generator."""

import pytest

from repro.core import check_strong_das
from repro.das import centralized_das_schedule
from repro.errors import ProtocolError
from repro.topology import (
    GridTopology,
    LineTopology,
    RingTopology,
    random_geometric_topology,
)


class TestGeneratorValidity:
    @pytest.mark.parametrize(
        "topology",
        [
            LineTopology(6),
            RingTopology(9),
            GridTopology(5),
            GridTopology(7),
        ],
        ids=lambda t: t.name,
    )
    def test_strong_das_on_standard_topologies(self, topology):
        for seed in range(5):
            schedule = centralized_das_schedule(topology, seed=seed)
            result = check_strong_das(topology, schedule)
            assert result.ok, result.summary()

    def test_strong_das_on_random_geometric(self):
        topo = random_geometric_topology(
            30, area_side=45, communication_range=14, seed=11
        )
        schedule = centralized_das_schedule(topo, seed=0)
        assert check_strong_das(topo, schedule).ok

    def test_every_node_scheduled(self, grid5):
        schedule = centralized_das_schedule(grid5, seed=1)
        assert schedule.covers(grid5)

    def test_sink_has_top_slot(self, grid5):
        schedule = centralized_das_schedule(grid5, seed=1)
        assert schedule.sink_slot == max(schedule.slots().values())

    def test_parents_form_tree_toward_sink(self, grid5):
        schedule = centralized_das_schedule(grid5, seed=2)
        for node in grid5.nodes:
            if node == grid5.sink:
                assert schedule.parent_of(node) is None
                continue
            parent = schedule.parent_of(node)
            assert parent is not None
            assert grid5.are_linked(node, parent)
            assert grid5.sink_distance(parent) < grid5.sink_distance(node)

    def test_slots_fit_default_frame_on_paper_grids(self):
        # Even the 21x21 grid stays within the 100-slot budget.
        from repro.topology import paper_grid

        schedule = centralized_das_schedule(paper_grid(21), seed=0)
        values = schedule.slots().values()
        assert min(values) >= 1
        assert max(values) <= 100


class TestDeterminism:
    def test_same_seed_same_schedule(self, grid5):
        a = centralized_das_schedule(grid5, seed=123)
        b = centralized_das_schedule(grid5, seed=123)
        assert a == b

    def test_different_seeds_differ(self, grid7):
        a = centralized_das_schedule(grid7, seed=1)
        b = centralized_das_schedule(grid7, seed=2)
        assert a != b

    def test_jitter_free_is_canonical(self, grid5):
        a = centralized_das_schedule(grid5, jitter=False)
        b = centralized_das_schedule(grid5, jitter=False, seed=99)
        assert a == b  # seed ignored without jitter


class TestVariance:
    def test_seeds_spread_attacker_basins(self):
        """The slot-gradient endpoint should vary across seeds — this is
        the run-to-run variance that makes capture a ratio, not a bit."""
        grid = GridTopology(7)
        endpoints = set()
        for seed in range(12):
            schedule = centralized_das_schedule(grid, seed=seed)
            cur = grid.sink
            for _ in range(40):
                nbrs = [m for m in grid.neighbours(cur) if m != grid.sink]
                nxt = min(nbrs, key=lambda m: (schedule.slot_of(m), m))
                if cur != grid.sink and schedule.slot_of(nxt) >= schedule.slot_of(cur):
                    break
                cur = nxt
            endpoints.add(cur)
        assert len(endpoints) >= 3


class TestFailureModes:
    def test_repair_budget_exhaustion_raises(self, grid5):
        with pytest.raises(ProtocolError, match="did not converge"):
            centralized_das_schedule(grid5, seed=0, max_repair_passes=1)
