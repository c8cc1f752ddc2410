"""Unit tests for line, ring and random geometric topologies."""

import pytest

from repro.errors import TopologyError
from repro.topology import (
    LineTopology,
    RingTopology,
    random_geometric_topology,
)


class TestLine:
    def test_roles_default_to_ends(self):
        line = LineTopology(6)
        assert line.sink == 5
        assert line.source == 0

    def test_length_property(self):
        assert LineTopology(4).length == 4

    def test_rejects_single_node(self):
        with pytest.raises(TopologyError, match="at least 2"):
            LineTopology(1)

    def test_rejects_bad_spacing(self):
        with pytest.raises(TopologyError, match="positive"):
            LineTopology(4, spacing=-1.0)

    def test_interior_degree_is_two(self):
        line = LineTopology(5)
        assert len(line.neighbours(0)) == 1
        assert len(line.neighbours(2)) == 2

    def test_sink_override_moves_default_source(self):
        line = LineTopology(5, sink=0)
        assert line.sink == 0
        assert line.source == 4

    def test_positions_are_collinear(self):
        line = LineTopology(3, spacing=2.0)
        assert line.position(2).x == pytest.approx(4.0)
        assert line.position(2).y == 0.0


class TestRing:
    def test_every_node_has_degree_two(self):
        ring = RingTopology(6)
        assert all(len(ring.neighbours(n)) == 2 for n in ring.nodes)

    def test_source_is_antipodal(self):
        ring = RingTopology(8)
        assert ring.source == 4
        assert ring.hop_distance(ring.sink, ring.source) == 4

    def test_rejects_short_ring(self):
        with pytest.raises(TopologyError, match="at least 3"):
            RingTopology(2)

    def test_rejects_bad_radius(self):
        with pytest.raises(TopologyError, match="positive"):
            RingTopology(5, radius=0)

    def test_odd_ring_antipode(self):
        ring = RingTopology(7)
        assert ring.source == 3

    def test_length_property(self):
        assert RingTopology(9).length == 9


class TestRandomGeometric:
    def test_reproducible_given_seed(self):
        a = random_geometric_topology(20, area_side=40, communication_range=14, seed=7)
        b = random_geometric_topology(20, area_side=40, communication_range=14, seed=7)
        assert a.nodes == b.nodes
        assert a.num_edges == b.num_edges
        assert a.sink == b.sink and a.source == b.source

    def test_connected_and_roled(self):
        topo = random_geometric_topology(25, area_side=40, communication_range=14, seed=3)
        assert topo.has_source
        assert topo.source != topo.sink
        assert topo.source_sink_distance() >= 1

    def test_source_is_far_from_sink(self):
        topo = random_geometric_topology(25, area_side=40, communication_range=14, seed=3)
        max_distance = max(topo.sink_distance(n) for n in topo.nodes)
        assert topo.source_sink_distance() == max_distance

    def test_infeasible_range_raises(self):
        with pytest.raises(TopologyError, match="could not sample"):
            random_geometric_topology(
                20, area_side=1000, communication_range=1, seed=0, max_attempts=3
            )

    def test_rejects_bad_parameters(self):
        with pytest.raises(TopologyError):
            random_geometric_topology(1, 10, 5)
        with pytest.raises(TopologyError):
            random_geometric_topology(5, -1, 5)
        with pytest.raises(TopologyError):
            random_geometric_topology(5, 10, 5, max_attempts=0)

    def test_explicit_roles_respected(self):
        topo = random_geometric_topology(
            15, area_side=30, communication_range=14, seed=5, sink=0, source=1
        )
        assert topo.sink == 0
        assert topo.source == 1
