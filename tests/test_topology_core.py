"""Unit tests for the Topology abstraction."""

import networkx as nx
import pytest

from repro.errors import TopologyError
from repro.topology import Coordinate, Topology


def simple_square() -> Topology:
    """A 4-cycle: 0-1-2-3-0 with sink 0, source 2."""
    return Topology.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)], sink=0, source=2)


class TestConstruction:
    def test_rejects_empty_graph(self):
        with pytest.raises(TopologyError, match="at least one node"):
            Topology(nx.Graph(), sink=0)

    def test_rejects_disconnected_graph(self):
        g = nx.Graph([(0, 1), (2, 3)])
        with pytest.raises(TopologyError, match="connected"):
            Topology(g, sink=0)

    def test_rejects_unknown_sink(self):
        g = nx.path_graph(3)
        with pytest.raises(TopologyError, match="sink"):
            Topology(g, sink=99)

    def test_rejects_unknown_source(self):
        g = nx.path_graph(3)
        with pytest.raises(TopologyError, match="source"):
            Topology(g, sink=0, source=99)

    def test_rejects_source_equal_to_sink(self):
        g = nx.path_graph(3)
        with pytest.raises(TopologyError, match="distinct"):
            Topology(g, sink=0, source=0)

    def test_graph_is_defensively_copied(self):
        g = nx.path_graph(3)
        topo = Topology(g, sink=0)
        g.add_edge(0, 2)
        assert not topo.are_linked(0, 2)


class TestRoles:
    def test_sink_and_source(self):
        topo = simple_square()
        assert topo.sink == 0
        assert topo.source == 2
        assert topo.has_source

    def test_missing_source_raises(self):
        topo = Topology.from_edges([(0, 1)], sink=0)
        assert not topo.has_source
        with pytest.raises(TopologyError, match="no designated source"):
            _ = topo.source

    def test_with_source_returns_new_topology(self):
        topo = simple_square()
        other = topo.with_source(1)
        assert other.source == 1
        assert topo.source == 2  # original untouched


class TestStructure:
    def test_nodes_sorted(self):
        topo = simple_square()
        assert topo.nodes == (0, 1, 2, 3)

    def test_len_and_contains(self):
        topo = simple_square()
        assert len(topo) == 4
        assert 2 in topo
        assert 99 not in topo

    def test_neighbours_sorted(self):
        topo = simple_square()
        assert topo.neighbours(0) == (1, 3)

    def test_neighbours_unknown_node(self):
        with pytest.raises(TopologyError, match="not part of"):
            simple_square().neighbours(42)

    def test_degree(self):
        assert len(simple_square().neighbours(1)) == 2

    def test_are_linked(self):
        topo = simple_square()
        assert topo.are_linked(0, 1)
        assert not topo.are_linked(0, 2)


class TestCollisionNeighbourhood:
    def test_two_hop_on_square(self):
        topo = simple_square()
        # On a 4-cycle everything is within two hops of everything.
        assert topo.collision_neighbourhood(0) == frozenset({1, 2, 3})

    def test_excludes_self(self, line5):
        assert 2 not in line5.collision_neighbourhood(2)

    def test_two_hop_on_line(self, line5):
        assert line5.collision_neighbourhood(0) == frozenset({1, 2})
        assert line5.collision_neighbourhood(2) == frozenset({0, 1, 3, 4})

    def test_cached_result_is_stable(self, line5):
        first = line5.collision_neighbourhood(1)
        second = line5.collision_neighbourhood(1)
        assert first == second


class TestDistances:
    def test_sink_distance(self, line5):
        assert line5.sink_distance(line5.sink) == 0
        assert line5.sink_distance(0) == 4

    def test_source_sink_distance(self, line5):
        assert line5.source_sink_distance() == 4

    def test_hop_distance(self, ring8):
        assert ring8.hop_distance(0, 4) == 4
        assert ring8.hop_distance(1, 7) == 2

    def test_shortest_path_children(self, line5):
        # On a line, the unique toward-sink neighbour of node 2 is node 3.
        assert line5.shortest_path_children(2) == (3,)
        assert line5.shortest_path_children(line5.sink) == ()

    def test_shortest_path_children_on_grid(self, grid5):
        # Node 0 (corner) has two neighbours, both one hop closer to the
        # centre sink.
        children = grid5.shortest_path_children(0)
        assert set(children) == {1, 5}

    def test_bfs_layers_partition_nodes(self, grid5):
        layers = grid5.bfs_layers()
        assert layers[0] == [grid5.sink]
        flattened = [n for layer in layers for n in layer]
        assert sorted(flattened) == list(grid5.nodes)


class TestGeometry:
    def test_positions_absent_by_default(self):
        topo = simple_square()
        assert topo.positions() == {}
        with pytest.raises(TopologyError, match="no physical position"):
            topo.position(0)

    def test_unit_disk_construction(self):
        positions = {
            0: Coordinate(0.0, 0.0),
            1: Coordinate(4.0, 0.0),
            2: Coordinate(8.0, 0.0),
        }
        topo = Topology.from_unit_disk(positions, communication_range=4.5, sink=2)
        assert topo.are_linked(0, 1)
        assert topo.are_linked(1, 2)
        assert not topo.are_linked(0, 2)

    def test_unit_disk_rejects_bad_range(self):
        with pytest.raises(TopologyError, match="positive"):
            Topology.from_unit_disk({0: Coordinate(0, 0)}, 0.0, sink=0)

    def test_unit_disk_disconnected_rejected(self):
        positions = {0: Coordinate(0, 0), 1: Coordinate(100, 100)}
        with pytest.raises(TopologyError, match="connected"):
            Topology.from_unit_disk(positions, communication_range=5.0, sink=0)


class TestArrayMetrics:
    """The array-backed TopologyMetrics tables must agree with the
    networkx queries they replaced, for every node pair."""

    @pytest.fixture
    def topo(self):
        from repro.topology import GridTopology

        return GridTopology(5, sink=12, source=0)

    def test_sink_distance_matches_networkx(self, topo):
        reference = nx.single_source_shortest_path_length(
            nx.Graph(topo.edges), topo.sink
        )
        for node in topo.nodes:
            assert topo.sink_distance(node) == reference[node]

    def test_hop_distance_matches_networkx_all_pairs(self, topo):
        graph = nx.Graph(topo.edges)
        for a in topo.nodes:
            for b in topo.nodes:
                assert topo.hop_distance(a, b) == nx.shortest_path_length(graph, a, b)

    def test_hop_distance_reuses_cached_rows_symmetrically(self, topo):
        metrics = topo.metrics
        cached_before = len(metrics._rows)
        topo.hop_distance(3, 17)
        assert len(metrics._rows) == cached_before + 1
        # The reverse query answers from the same row: no new BFS.
        topo.hop_distance(17, 3)
        assert len(metrics._rows) == cached_before + 1

    def test_shortest_path_children_match_definition(self, topo):
        for node in topo.nodes:
            expected = tuple(
                m
                for m in topo.neighbours(node)
                if topo.sink_distance(m) == topo.sink_distance(node) - 1
            )
            assert topo.shortest_path_children(node) == expected

    def test_bfs_layers_partition_by_distance(self, topo):
        layers = topo.bfs_layers()
        seen = []
        for depth, layer in enumerate(layers):
            assert layer == sorted(layer)
            for node in layer:
                assert topo.sink_distance(node) == depth
            seen.extend(layer)
        assert sorted(seen) == list(topo.nodes)

    def test_unknown_node_still_raises(self, topo):
        with pytest.raises(TopologyError):
            topo.sink_distance(999)
        with pytest.raises(TopologyError):
            topo.hop_distance(0, 999)
        with pytest.raises(TopologyError):
            topo.shortest_path_children(-1)

    def test_metrics_survive_pickle_exclusion(self, topo):
        import pickle

        topo.hop_distance(0, 24)  # populate a non-sink BFS row
        clone = pickle.loads(pickle.dumps(topo))
        assert clone._metrics is None
        for node in topo.nodes:
            assert clone.sink_distance(node) == topo.sink_distance(node)
            assert clone.shortest_path_children(
                node
            ) == topo.shortest_path_children(node)
