"""Topology's own adjacency must iterate exactly as the networkx graph
it replaced.

Schedule-repair tie-breaks iterate 2-hop sets, and a frozenset's
iteration order depends on how it was filled, so neighbour order is
load-bearing.  Every reference below is built the way the topology
classes used to build theirs: a ``networkx.Graph`` filled in the same
order, then ``nx.freeze(graph.copy())``.
"""

from __future__ import annotations

import pickle

import networkx as nx
import pytest

from repro.core.das_properties import _has_path_avoiding
from repro.errors import TopologyError
from repro.experiments import topology_fingerprint
from repro.topology import (
    Coordinate,
    GridTopology,
    LineTopology,
    RingTopology,
    Topology,
    paper_grid,
    random_geometric_topology,
)


def frozen(graph: nx.Graph) -> nx.Graph:
    return nx.freeze(graph.copy())


def nx_grid(size: int) -> nx.Graph:
    graph = nx.Graph()
    for row in range(size):
        for col in range(size):
            node = row * size + col
            graph.add_node(node)
            if col > 0:
                graph.add_edge(node, node - 1)
            if row > 0:
                graph.add_edge(node, node - size)
    return graph


def nx_unit_disk(positions, communication_range) -> nx.Graph:
    graph = nx.Graph()
    graph.add_nodes_from(positions)
    ids = sorted(positions)
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            if positions[a].distance_to(positions[b]) <= communication_range:
                graph.add_edge(a, b)
    return graph


UNSORTED_EDGES = [(4, 2), (0, 3), (2, 0), (3, 1), (1, 4), (5, 2), (0, 1), (3, 5)]

DISK = {
    7: Coordinate(0.0, 0.0),
    2: Coordinate(3.0, 1.0),
    9: Coordinate(6.0, 0.5),
    0: Coordinate(3.5, 4.0),
    5: Coordinate(7.0, 4.0),
    3: Coordinate(0.5, 4.5),
}


def _random():
    topo = random_geometric_topology(150, 60.0, 12.0, seed=7)
    base = frozen(nx_unit_disk(topo.positions(), 12.0))
    return topo, frozen(nx.Graph(base))  # with_source's copy of a copy


CASES = {
    "grid5": lambda: (GridTopology(5), frozen(nx_grid(5))),
    "grid11": lambda: (GridTopology(11), frozen(nx_grid(11))),
    "line": lambda: (LineTopology(9), frozen(nx.path_graph(9))),
    "ring": lambda: (RingTopology(10), frozen(nx.cycle_graph(10))),
    "random-geometric": _random,
    "from-edges": lambda: (
        Topology.from_edges(UNSORTED_EDGES, sink=0, source=5),
        frozen(nx.Graph(UNSORTED_EDGES)),
    ),
    "from-unit-disk": lambda: (
        Topology.from_unit_disk(DISK, 4.5, sink=7, source=5),
        frozen(nx_unit_disk(DISK, 4.5)),
    ),
    "with-source": lambda: (
        GridTopology(5).with_source(3),
        frozen(nx.Graph(frozen(nx_grid(5)))),
    ),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]()


def old_collision_neighbourhood(graph: nx.Graph, node):
    reach = {node}
    for first in graph.neighbors(node):
        reach.add(first)
        reach.update(graph.neighbors(first))
    reach.discard(node)
    return frozenset(reach)


class TestAdjacencyOrder:
    def test_node_and_neighbour_order_match_networkx(self, case):
        topo, reference = case
        assert list(topo._adj) == list(reference)
        for node in reference:
            assert list(topo._adj[node]) == list(reference[node])

    def test_networkx_export_keeps_the_order(self, case):
        topo, reference = case
        exported = topo.graph
        assert nx.is_frozen(exported)
        assert list(exported) == list(reference)
        for node in reference:
            assert list(exported[node]) == list(reference[node])

    def test_collision_neighbourhood_iteration_order(self, case):
        topo, reference = case
        for node in reference:
            assert list(topo.collision_neighbourhood(node)) == list(
                old_collision_neighbourhood(reference, node)
            )

    def test_counts_and_links(self, case):
        topo, reference = case
        assert topo.num_nodes == reference.number_of_nodes()
        assert topo.num_edges == reference.number_of_edges()
        for a in reference:
            for b in reference:
                assert topo.are_linked(a, b) == reference.has_edge(a, b)

    def test_pickle_round_trip_keeps_order_and_drops_export(self, case):
        topo, _ = case
        _ = topo.graph
        clone = pickle.loads(pickle.dumps(topo))
        assert clone._nx_graph is None
        assert [list(row) for row in clone._adj.values()] == [
            list(row) for row in topo._adj.values()
        ]


class TestQueriesMatchNetworkx:
    def test_neighbours_are_sorted_adjacency(self, case):
        topo, reference = case
        for node in reference:
            assert topo.neighbours(node) == tuple(sorted(reference[node]))

    def test_edges(self, case):
        topo, reference = case
        expected = sorted((min(a, b), max(a, b)) for a, b in reference.edges())
        assert list(topo.edges) == expected

    def test_sink_distance(self, case):
        topo, reference = case
        expected = nx.single_source_shortest_path_length(reference, topo.sink)
        assert {node: topo.sink_distance(node) for node in reference} == expected

    def test_source_sink_distance(self, case):
        topo, reference = case
        assert topo.source_sink_distance() == nx.shortest_path_length(
            reference, topo.source, topo.sink
        )

    def test_hop_distance(self, case):
        topo, reference = case
        expected = dict(nx.all_pairs_shortest_path_length(reference))
        for a in reference:
            for b in reference:
                assert topo.hop_distance(a, b) == expected[a][b]
        assert max(
            topo.hop_distance(a, b) for a in reference for b in reference
        ) == nx.diameter(reference)

    def test_shortest_path_children(self, case):
        topo, reference = case
        assert topo.shortest_path_children(topo.sink) == ()
        for node in reference:
            if node == topo.sink:
                continue
            first_hops = {
                path[1] for path in nx.all_shortest_paths(reference, node, topo.sink)
            }
            assert topo.shortest_path_children(node) == tuple(sorted(first_hops))

    def test_bfs_layers(self, case):
        topo, reference = case
        assert topo.bfs_layers() == [
            sorted(layer) for layer in nx.bfs_layers(reference, topo.sink)
        ]

    def test_repair_tables(self, case):
        topo, reference = case
        sink = topo.sink
        tables = topo.repair_tables()
        assert tables.nodes == tuple(sorted(n for n in reference if n != sink))
        assert tables.hop == nx.single_source_shortest_path_length(reference, sink)
        for node in tables.nodes:
            assert tables.spc[node] == tuple(
                m for m in topo.shortest_path_children(node) if m != sink
            )
            within_two = nx.single_source_shortest_path_length(
                reference, node, cutoff=2
            )
            assert set(tables.collision_pairs[node]) == {
                m for m in within_two if m != sink and m > node
            }

    @pytest.mark.parametrize("name", ["ring", "from-edges", "from-unit-disk", "grid5"])
    def test_path_avoiding_matches_restricted_view(self, name):
        topo, reference = CASES[name]()
        for avoid in reference:
            reduced = nx.restricted_view(reference, [avoid], [])
            for start in reference:
                for goal in reference:
                    expected = start == goal or (
                        start in reduced
                        and goal in reduced
                        and nx.has_path(reduced, start, goal)
                    )
                    assert _has_path_avoiding(topo, start, goal, avoid) == expected

    def test_connectivity_errors(self):
        with pytest.raises(TopologyError, match="at least one node"):
            Topology({}, sink=0)
        split = {0: [1], 1: [0], 2: [3], 3: [2]}
        assert not nx.is_connected(nx.Graph(split))
        with pytest.raises(TopologyError, match="connected"):
            Topology(split, sink=0)
        with pytest.raises(TopologyError, match="connected"):
            Topology(nx.Graph(split), sink=0)
        with pytest.raises(TopologyError, match="connected"):
            Topology.from_edges([(0, 1), (2, 2)], sink=0)

    def test_plain_mapping_and_graph_inputs_agree(self):
        mapping = {n: list(nx_grid(4)[n]) for n in nx_grid(4)}
        a = Topology(mapping, sink=5)
        b = Topology(nx_grid(4), sink=5)
        assert list(a._adj.items()) == list(b._adj.items())


class TestFingerprintPins:
    """Checkpoint keys, schedule-store keys and job ids embed these."""

    @pytest.mark.parametrize(
        "size,digest",
        [
            (11, "9299959d6403ca2b8a9fa6ab68516c85bf770f00ade7730516cb4253096be4fa"),
            (15, "9dab5bf4fadd5a978d275713b8b43b0f6ca9b5842e234ddefed3b29ff73416de"),
            (21, "d16408c67093bf5803e9de8e421717e37a1a22344580a2fac182c43bd47cc312"),
        ],
    )
    def test_paper_grid_fingerprints(self, size, digest):
        assert topology_fingerprint(paper_grid(size)) == digest
