"""The :class:`Topology` abstraction: a WSN as an undirected graph.

The paper models a WSN as an undirected graph ``G = (V, E)`` whose
vertices are sensor nodes and whose edges are symmetric communication
links (§III-A).  :class:`Topology` owns that graph as a plain adjacency
map and adds the queries the scheduling and privacy algorithms need:

* 1-hop neighbourhoods,
* 2-hop *collision* neighbourhoods ``CG(n)`` (Definition 1),
* hop distances and shortest-path structure toward the sink,
* the designated source and sink roles.

Instances are immutable after construction: the algorithms in this
library never rewire a network mid-run, and immutability lets expensive
derived data (BFS distance maps, 2-hop sets) be cached safely.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import TopologyError
from .node import Coordinate, NodeId

#: Node -> neighbours, both levels in insertion order (values unused).
Adjacency = Dict[NodeId, Dict[NodeId, None]]


def add_edge(adj: Adjacency, a: NodeId, b: NodeId) -> None:
    """Link ``a`` and ``b`` in ``adj`` exactly as ``nx.Graph.add_edge``
    would: a new endpoint is appended as a node (``a`` first), and each
    endpoint joins the end of the other's neighbour row if not yet there.
    """
    adj.setdefault(a, {})[b] = None
    adj.setdefault(b, {})[a] = None


def _reachable(adj: Mapping[NodeId, Iterable[NodeId]], start: NodeId) -> set:
    """The set of nodes reachable from ``start`` (BFS)."""
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for node in frontier:
            for other in adj[node]:
                if other not in seen:
                    seen.add(other)
                    nxt.append(other)
        frontier = nxt
    return seen


class RepairTables(NamedTuple):
    """The per-topology inputs of the slot-repair fixpoints
    (:func:`repro.das.centralized._repair` and the SLP update cascade),
    which re-read the same structure every pass and every seed."""

    #: every node but the sink, in sorted order.
    nodes: Tuple[NodeId, ...]
    #: node → its shortest-path children, the sink left out.
    spc: Dict[NodeId, Tuple[NodeId, ...]]
    #: node → the 2-hop neighbours ``m > node`` other than the sink, in
    #: the iteration order of :meth:`Topology.collision_neighbourhood`
    #: (the repair tie-breaks depend on it).
    collision_pairs: Dict[NodeId, Tuple[NodeId, ...]]
    #: node → hop distance to the sink.
    hop: Dict[NodeId, int]
    #: The same structure by position (position *i* is ``nodes[i]``),
    #: for the centralised fixpoint: ``spc`` and ``collision_pairs``
    #: as position tuples, and the hop distances.
    spc_at: Tuple[Tuple[int, ...], ...]
    pairs_at: Tuple[Tuple[int, ...], ...]
    hop_at: Tuple[int, ...]
    #: position → the positions whose condition-3 check reads its slot
    #: (the nodes listing it in ``spc``).
    spc_readers: Tuple[Tuple[int, ...], ...]
    #: position → the positions whose collision check reads its slot
    #: (itself, and the nodes listing it in ``collision_pairs``).
    pair_readers: Tuple[Tuple[int, ...], ...]


def _readers(
    reads: Sequence[Tuple[int, ...]], itself: bool
) -> Tuple[Tuple[int, ...], ...]:
    """Invert ``reads`` (position → the positions it reads): position →
    the positions that read it, in ascending order, led by the position
    itself when ``itself``."""
    readers: List[List[int]] = [[i] if itself else [] for i in range(len(reads))]
    for i, row in enumerate(reads):
        for j in row:
            readers[j].append(i)
    return tuple(tuple(row) for row in readers)


class TopologyMetrics:
    """Array-backed distance/structure metrics for one topology.

    Built lazily, in one pass, from a single BFS over an int-indexed
    adjacency structure — the "compiled tables" counterpart of per-call
    graph queries.
    Nodes are mapped to dense indices (sorted order) once; every metric
    is then a plain list indexed by node index:

    * ``sink_row[i]`` — hop distance from node ``order[i]`` to the sink;
    * ``spc[i]`` — the node's shortest-path children (neighbours one hop
      closer to the sink), precomputed for all nodes in one sweep;
    * :meth:`distance_row` — a BFS row from an arbitrary root, cached
      per root (this is what turns :meth:`Topology.hop_distance` from
      one shortest-path search *per query* into one BFS *per root*).

    The structure is derived state: :meth:`Topology.__getstate__`
    excludes it from pickle exactly like the other caches, so worker
    processes rebuild it deterministically from the adjacency.
    """

    __slots__ = (
        "order",
        "index",
        "adj",
        "neighbour_ids",
        "sink_row",
        "spc",
        "_rows",
    )

    def __init__(self, adj: Mapping[NodeId, Iterable[NodeId]], sink: NodeId) -> None:
        self.order: Tuple[NodeId, ...] = tuple(sorted(adj))
        index = {node: i for i, node in enumerate(self.order)}
        self.index: Dict[NodeId, int] = index
        #: int-indexed adjacency (sorted neighbour order, as indices).
        self.adj: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(index[m] for m in sorted(adj[node])) for node in self.order
        )
        #: the same adjacency as NodeId tuples (shared with neighbours()).
        self.neighbour_ids: Tuple[Tuple[NodeId, ...], ...] = tuple(
            tuple(self.order[j] for j in row) for row in self.adj
        )
        self.sink_row: List[int] = self._bfs(index[sink])
        sink_row = self.sink_row
        order = self.order
        #: shortest-path children per node, computed in one sweep.
        self.spc: Tuple[Tuple[NodeId, ...], ...] = tuple(
            tuple(
                order[j] for j in self.adj[i] if sink_row[j] == sink_row[i] - 1
            )
            for i in range(len(order))
        )
        #: per-root BFS rows for hop_distance, cached on demand.
        self._rows: Dict[int, List[int]] = {index[sink]: sink_row}

    def _bfs(self, root: int) -> List[int]:
        """One-shot BFS from ``root`` over the int-indexed adjacency."""
        adj = self.adj
        dist = [-1] * len(adj)
        dist[root] = 0
        frontier = [root]
        depth = 0
        while frontier:
            depth += 1
            nxt: List[int] = []
            for i in frontier:
                for j in adj[i]:
                    if dist[j] < 0:
                        dist[j] = depth
                        nxt.append(j)
            frontier = nxt
        return dist

    def distance_row(self, root: int) -> List[int]:
        """The BFS distance row from node index ``root`` (cached)."""
        row = self._rows.get(root)
        if row is None:
            row = self._bfs(root)
            self._rows[root] = row
        return row

    def distance(self, a: int, b: int) -> int:
        """Hop distance between node indices ``a`` and ``b``.

        Distances are symmetric, so a row already cached for either
        endpoint answers the query; only when neither is cached does a
        new BFS run (rooted at ``a``).
        """
        row = self._rows.get(a)
        if row is not None:
            return row[b]
        row = self._rows.get(b)
        if row is not None:
            return row[a]
        return self.distance_row(a)[b]


class Topology:
    """An immutable WSN topology with designated source and sink.

    Parameters
    ----------
    graph:
        The undirected communication graph, as any mapping from a node
        to its neighbours.  A defensive copy is taken.
    sink:
        The node that collects aggregated data (the base station).
    source:
        The node that detects the asset and originates data messages.
        May be ``None`` for topologies used purely for schedule
        construction; most privacy queries require it.
    positions:
        Optional mapping of node to physical :class:`Coordinate`.  When
        omitted, nodes are laid out on a unit circle purely so that the
        visualiser has something to draw.
    name:
        Human-readable topology name used in reports.
    """

    def __init__(
        self,
        graph: Mapping[NodeId, Iterable[NodeId]],
        sink: NodeId,
        source: Optional[NodeId] = None,
        positions: Optional[Mapping[NodeId, Coordinate]] = None,
        name: str = "topology",
    ) -> None:
        # Re-add every edge in the order the input iterates, as
        # ``nx.freeze(graph.copy())`` did: neighbour order feeds the 2-hop
        # sets whose iteration order the schedule repair tie-breaks see.
        adj: Adjacency = {node: {} for node in graph}
        for a in graph:
            for b in graph[a]:
                add_edge(adj, a, b)
        if not adj:
            raise TopologyError("a topology must contain at least one node")
        if len(_reachable(adj, next(iter(adj)))) != len(adj):
            raise TopologyError("the communication graph must be connected")
        if sink not in adj:
            raise TopologyError(f"sink {sink!r} is not a node of the graph")
        if source is not None and source not in adj:
            raise TopologyError(f"source {source!r} is not a node of the graph")
        if source is not None and source == sink:
            raise TopologyError("source and sink must be distinct nodes")

        self._adj = adj
        self._sink = sink
        self._source = source
        self._name = name
        if positions is None:
            self._positions: Dict[NodeId, Coordinate] = {}
        else:
            self._positions = {n: positions[n] for n in adj}

        # Derived caches, computed lazily.
        self._two_hop: Dict[NodeId, FrozenSet[NodeId]] = {}
        self._repair: Optional[RepairTables] = None
        self._metrics: Optional[TopologyMetrics] = None
        self._neighbour_cache: Dict[NodeId, Tuple[NodeId, ...]] = {}

    def __getstate__(self) -> Dict[str, object]:
        """Pickle without the derived caches.

        The caches (2-hop sets, the repair tables, neighbour tuples, the
        array-backed :class:`TopologyMetrics`) are rebuilt
        deterministically on demand, and excluding them matters for more
        than size: pickling a ``frozenset`` does not preserve its internal
        layout, so its *iteration order* can change across a round-trip.
        Algorithms
        that iterate 2-hop sets (e.g. the schedule repair fixpoint's
        tie-breaks) would then diverge between an in-process topology
        and one shipped to a worker process.  A worker that rebuilds the
        caches from scratch constructs them exactly as the parent did,
        keeping parallel seed sweeps bit-identical to serial ones.
        """
        state = self.__dict__.copy()
        state["_two_hop"] = {}
        state["_repair"] = None
        state["_metrics"] = None
        state["_neighbour_cache"] = {}
        return state

    @property
    def metrics(self) -> TopologyMetrics:
        """The array-backed metric tables (built on first use)."""
        metrics = self._metrics
        if metrics is None:
            metrics = TopologyMetrics(self._adj, self._sink)
            self._metrics = metrics
        return metrics

    # ------------------------------------------------------------------
    # Basic structure
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Human-readable name for reports and plots."""
        return self._name

    @property
    def sink(self) -> NodeId:
        """The data-collecting node ``S`` of the paper."""
        return self._sink

    @property
    def source(self) -> NodeId:
        """The asset-detecting node; raises if the topology has none."""
        if self._source is None:
            raise TopologyError(f"topology {self._name!r} has no designated source")
        return self._source

    @property
    def has_source(self) -> bool:
        """Whether a source node was designated at construction time."""
        return self._source is not None

    def with_source(self, source: NodeId) -> "Topology":
        """Return a copy of this topology with a different source node."""
        return Topology(
            self._adj,
            sink=self._sink,
            source=source,
            positions=self._positions or None,
            name=self._name,
        )

    @property
    def nodes(self) -> Tuple[NodeId, ...]:
        """All node identifiers, in sorted order."""
        return tuple(sorted(self._adj))

    @property
    def num_nodes(self) -> int:
        """Number of nodes ``|V|``."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of communication links ``|E|``."""
        return len(self.edges)

    @property
    def edges(self) -> Tuple[Tuple[NodeId, NodeId], ...]:
        """Every link once, as a ``(low, high)`` pair, in sorted order."""
        return tuple(
            sorted({(a, b) if a <= b else (b, a) for a, row in self._adj.items() for b in row})
        )

    def __contains__(self, node: NodeId) -> bool:
        return node in self._adj

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self.nodes)

    def __len__(self) -> int:
        return self.num_nodes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        src = self._source if self._source is not None else "-"
        # A family topology (grid, line, ring) is rebuilt from its
        # parameters; any other one lists its links, so a generated
        # topology in a failure report can be rebuilt with from_edges.
        links = f", links={list(self.edges)}" if type(self) is Topology else ""
        return (
            f"Topology({self._name!r}, nodes={self.num_nodes}, "
            f"edges={self.num_edges}, sink={self._sink}, source={src}{links})"
        )

    # ------------------------------------------------------------------
    # Neighbourhoods
    # ------------------------------------------------------------------
    def _require_node(self, node: NodeId) -> None:
        if node not in self._adj:
            raise TopologyError(f"node {node!r} is not part of topology {self._name!r}")

    def neighbours(self, node: NodeId) -> Tuple[NodeId, ...]:
        """Return the 1-hop neighbours of ``node``, sorted by identifier."""
        cached = self._neighbour_cache.get(node)
        if cached is not None:
            return cached
        self._require_node(node)
        metrics = self.metrics
        result = metrics.neighbour_ids[metrics.index[node]]
        self._neighbour_cache[node] = result
        return result

    def collision_neighbourhood(self, node: NodeId) -> FrozenSet[NodeId]:
        """Return ``CG(n)``: nodes within 2 hops of ``node``, excluding it.

        Definition 1 of the paper declares a slot *non-colliding* for a
        node exactly when no member of its 2-hop neighbourhood shares the
        slot; this is the classic hidden-terminal-safe TDMA constraint.
        """
        cached = self._two_hop.get(node)
        if cached is not None:
            return cached
        self._require_node(node)
        adj = self._adj
        reach = {node}
        for first in adj[node]:
            reach.add(first)
            # Through an iterator, not the dict itself: set.update pre-sizes
            # its table for a dict argument, which would change the
            # frozenset's iteration order.
            reach.update(iter(adj[first]))
        reach.discard(node)
        result = frozenset(reach)
        self._two_hop[node] = result
        return result

    def repair_tables(self) -> RepairTables:
        """The schedule-repair fixpoints' tables for this topology,
        built on first use (every schedule build on it shares them)."""
        tables = self._repair
        if tables is None:
            sink = self._sink
            metrics = self.metrics
            index = metrics.index
            two_hop = self.collision_neighbourhood
            nodes = tuple(n for n in metrics.order if n != sink)
            spc = {
                n: tuple(m for m in metrics.spc[index[n]] if m != sink)
                for n in nodes
            }
            collision_pairs = {
                n: tuple(m for m in two_hop(n) if m != sink and m > n)
                for n in nodes
            }
            hop = dict(zip(metrics.order, metrics.sink_row))
            position = {n: i for i, n in enumerate(nodes)}
            spc_at = tuple(tuple(position[m] for m in spc[n]) for n in nodes)
            pairs_at = tuple(
                tuple(position[m] for m in collision_pairs[n]) for n in nodes
            )
            tables = RepairTables(
                nodes=nodes,
                spc=spc,
                collision_pairs=collision_pairs,
                hop=hop,
                spc_at=spc_at,
                pairs_at=pairs_at,
                hop_at=tuple(hop[n] for n in nodes),
                spc_readers=_readers(spc_at, itself=False),
                pair_readers=_readers(pairs_at, itself=True),
            )
            self._repair = tables
        return tables

    def are_linked(self, a: NodeId, b: NodeId) -> bool:
        """Whether nodes ``a`` and ``b`` share a communication link."""
        self._require_node(a)
        self._require_node(b)
        return b in self._adj[a]

    # ------------------------------------------------------------------
    # Distances and paths
    # ------------------------------------------------------------------
    def sink_distance(self, node: NodeId) -> int:
        """Hop distance from ``node`` to the sink.

        Used pervasively: the DAS definitions (Defs. 2–3) constrain the
        slots of neighbours *closer to the sink*, and the Phase 1 protocol
        tracks every node's ``hop`` value.  Backed by the one-shot BFS
        row of :class:`TopologyMetrics`.
        """
        metrics = self.metrics
        index = metrics.index.get(node)
        if index is None:
            self._require_node(node)
        return metrics.sink_row[index]

    def source_sink_distance(self) -> int:
        """Hop distance ``Δss`` between the designated source and the sink."""
        return self.sink_distance(self.source)

    def hop_distance(self, a: NodeId, b: NodeId) -> int:
        """Hop distance between two arbitrary nodes.

        One BFS per distinct root, cached (distances are symmetric, so
        a row cached for either endpoint answers the query).
        """
        metrics = self.metrics
        index = metrics.index
        ia = index.get(a)
        ib = index.get(b)
        if ia is None:
            self._require_node(a)
        if ib is None:
            self._require_node(b)
        return metrics.distance(ia, ib)

    def shortest_path_children(self, node: NodeId) -> Tuple[NodeId, ...]:
        """Neighbours of ``node`` that are one hop *closer* to the sink.

        These are the neighbours ``m`` for which ``n·m···S`` is a shortest
        path — exactly the set quantified over in Def. 2 condition 3.
        Precomputed for every node in one sweep by
        :class:`TopologyMetrics` (the schedule repair fixpoint queries
        this per node per pass).
        """
        metrics = self.metrics
        index = metrics.index.get(node)
        if index is None:
            self._require_node(node)
        return metrics.spc[index]

    def bfs_layers(self) -> List[List[NodeId]]:
        """Nodes grouped by hop distance from the sink (layer 0 = sink)."""
        metrics = self.metrics
        layers: Dict[int, List[NodeId]] = {}
        for index, node in enumerate(metrics.order):
            layers.setdefault(metrics.sink_row[index], []).append(node)
        # metrics.order is sorted, so each layer is already sorted.
        return [layers[d] for d in sorted(layers)]

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------

    def position(self, node: NodeId) -> Coordinate:
        """Physical position of ``node``; raises if unplaced."""
        self._require_node(node)
        try:
            return self._positions[node]
        except KeyError as exc:
            raise TopologyError(f"node {node!r} has no physical position") from exc

    def positions(self) -> Dict[NodeId, Coordinate]:
        """A copy of the full node → position mapping."""
        return dict(self._positions)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def from_edges(
        edges: Iterable[Tuple[NodeId, NodeId]],
        sink: NodeId,
        source: Optional[NodeId] = None,
        name: str = "custom",
    ) -> "Topology":
        """Build a topology from an explicit edge list."""
        adj: Adjacency = {}
        for a, b in edges:
            add_edge(adj, a, b)
        return Topology(adj, sink=sink, source=source, name=name)

    @staticmethod
    def from_unit_disk(
        positions: Mapping[NodeId, Coordinate],
        communication_range: float,
        sink: NodeId,
        source: Optional[NodeId] = None,
        name: str = "unit-disk",
    ) -> "Topology":
        """Build a topology under the unit-disk model of §III-A.

        Two nodes are linked exactly when their Euclidean distance is at
        most ``communication_range``; every node is assumed to have the
        same circular range, as in the paper's system model.
        """
        if communication_range <= 0:
            raise TopologyError("communication range must be positive")
        adj: Adjacency = {node: {} for node in positions}
        ids: Sequence[NodeId] = sorted(positions)
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                if positions[a].distance_to(positions[b]) <= communication_range:
                    add_edge(adj, a, b)
        return Topology(adj, sink=sink, source=source, positions=positions, name=name)
