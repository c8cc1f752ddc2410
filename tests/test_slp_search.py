"""Tests for Phase 2 — the node locator."""

import random

import pytest

from repro.das import centralized_das_schedule
from repro.errors import ProtocolError
from repro.slp import locate_redirection_node
from repro.topology import LineTopology


class TestSearch:
    def test_path_starts_at_sink(self, grid7):
        schedule = centralized_das_schedule(grid7, seed=0)
        result = locate_redirection_node(grid7, schedule, search_distance=3)
        assert result.path[0] == grid7.sink

    def test_path_is_connected(self, grid7):
        schedule = centralized_das_schedule(grid7, seed=1)
        result = locate_redirection_node(grid7, schedule, search_distance=3)
        for a, b in zip(result.path, result.path[1:]):
            assert grid7.are_linked(a, b)

    def test_start_node_is_path_end(self, grid7):
        schedule = centralized_das_schedule(grid7, seed=2)
        result = locate_redirection_node(grid7, schedule, search_distance=3)
        assert result.start_node == result.path[-1]
        assert result.arrived_from == result.path[-2]

    def test_start_node_has_spare_parent(self, grid7):
        """The selected node must be able to host a redirection."""
        for seed in range(8):
            schedule = centralized_das_schedule(grid7, seed=seed)
            result = locate_redirection_node(grid7, schedule, search_distance=3)
            parent = schedule.parent_of(result.start_node)
            spares = [
                m
                for m in grid7.shortest_path_children(result.start_node)
                if m != parent
                and m != result.arrived_from
                and m != grid7.sink
            ]
            assert spares, f"seed {seed}: start node has no spare parent"

    def test_search_follows_attacker_prediction(self, grid7):
        """The first SD hops coincide with the slot-gradient descent."""
        schedule = centralized_das_schedule(grid7, seed=3)
        result = locate_redirection_node(grid7, schedule, search_distance=2)
        cur = grid7.sink
        for expected in result.path[1:3]:
            nbrs = [m for m in grid7.neighbours(cur) if m != grid7.sink]
            nxt = min(nbrs, key=lambda m: (schedule.slot_of(m), m))
            assert nxt == expected
            cur = nxt

    def test_from_set_covers_path(self, grid7):
        schedule = centralized_das_schedule(grid7, seed=4)
        result = locate_redirection_node(grid7, schedule, search_distance=3)
        assert result.from_set == frozenset(result.path)

    def test_search_distance_validation(self, grid7):
        schedule = centralized_das_schedule(grid7, seed=0)
        with pytest.raises(ProtocolError, match="at least 1"):
            locate_redirection_node(grid7, schedule, search_distance=0)

    def test_line_topology_has_no_redirection_host(self):
        """A pure line offers no spare parents anywhere: the search must
        fail loudly instead of looping."""
        line = LineTopology(8)
        schedule = centralized_das_schedule(line, seed=0)
        with pytest.raises(ProtocolError):
            locate_redirection_node(line, schedule, search_distance=2)

    def test_deterministic_given_rng(self, grid7):
        schedule = centralized_das_schedule(grid7, seed=5)
        a = locate_redirection_node(
            grid7, schedule, 3, rng=random.Random(1)
        )
        b = locate_redirection_node(
            grid7, schedule, 3, rng=random.Random(1)
        )
        assert a == b

    def test_longer_search_goes_deeper(self, grid7):
        schedule = centralized_das_schedule(grid7, seed=6)
        short = locate_redirection_node(grid7, schedule, search_distance=1)
        long = locate_redirection_node(grid7, schedule, search_distance=4)
        assert len(long.path) >= len(short.path)
