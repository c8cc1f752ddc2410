"""Unit tests for grid topologies (the paper's evaluation layout)."""

import pytest

from repro.errors import TopologyError
from repro.topology import (
    PAPER_GRID_SIZES,
    PAPER_NODE_SPACING_M,
    GridTopology,
    paper_grid,
)


class TestGridConstruction:
    def test_node_count(self):
        assert GridTopology(4).num_nodes == 16

    def test_edge_count(self):
        # n x n grid has 2 n (n-1) edges.
        g = GridTopology(5)
        assert g.num_edges == 2 * 5 * 4

    def test_rejects_tiny_grid(self):
        with pytest.raises(TopologyError, match="at least 2x2"):
            GridTopology(1)

    def test_rejects_bad_spacing(self):
        with pytest.raises(TopologyError, match="positive"):
            GridTopology(3, spacing=0.0)

    def test_default_roles_match_paper(self):
        g = GridTopology(11)
        assert g.source == 0  # top-left
        assert g.source == g.node_at(0, 0)
        assert g.sink == g.node_at(5, 5)  # centre

    def test_role_overrides(self):
        g = GridTopology(5, source=24, sink=0)
        assert g.source == 24
        assert g.sink == 0

    def test_positions_use_spacing(self):
        g = GridTopology(3, spacing=4.5)
        assert g.position(g.node_at(1, 2)).x == pytest.approx(9.0)
        assert g.position(g.node_at(1, 2)).y == pytest.approx(4.5)

    def test_four_neighbour_connectivity_only(self):
        g = GridTopology(3)
        centre = g.node_at(1, 1)
        assert set(g.neighbours(centre)) == {
            g.node_at(0, 1),
            g.node_at(1, 0),
            g.node_at(1, 2),
            g.node_at(2, 1),
        }
        # no diagonals
        assert not g.are_linked(g.node_at(0, 0), g.node_at(1, 1))


class TestGridQueries:
    def test_coordinates_roundtrip(self):
        g = GridTopology(7)
        for node in (0, 13, 25, 48):
            r, c = g.coordinates_of(node)
            assert g.node_at(r, c) == node

    def test_coordinates_of_unknown_node(self):
        with pytest.raises(TopologyError):
            GridTopology(3).coordinates_of(99)

    def test_node_at_out_of_bounds(self):
        with pytest.raises(TopologyError, match="out of bounds"):
            GridTopology(3).node_at(3, 0)

    def test_sink_distance_is_manhattan(self):
        g = GridTopology(5)
        # hop distance from corner to centre = 2 + 2.
        assert g.sink_distance(0) == 4

    def test_source_sink_distance_paper_values(self):
        # Δss = 2 * (size // 2) for a corner source and centre sink.
        for size, expected in [(11, 10), (15, 14), (21, 20)]:
            assert paper_grid(size).source_sink_distance() == expected


class TestPaperGrid:
    def test_accepts_paper_sizes(self):
        for size in PAPER_GRID_SIZES:
            g = paper_grid(size)
            assert g.size == size
            assert g.spacing == PAPER_NODE_SPACING_M

    def test_rejects_other_sizes(self):
        with pytest.raises(TopologyError, match="paper evaluates"):
            paper_grid(13)

    def test_name_is_descriptive(self):
        assert paper_grid(11).name == "grid-11x11"
