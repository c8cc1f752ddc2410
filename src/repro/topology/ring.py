"""Ring (cycle) topologies.

Rings exercise the algorithms on a graph where every node has exactly two
neighbours and two vertex-disjoint routes exist between any pair — a
useful stress for the Phase 2 node locator, which needs nodes with spare
potential parents.
"""

from __future__ import annotations

import math
from typing import Optional

from ..errors import TopologyError
from .node import Coordinate, NodeId
from .topology import Adjacency, Topology, add_edge


class RingTopology(Topology):
    """A cycle of ``length`` nodes: ``0 — 1 — … — length-1 — 0``.

    The default sink is node 0 and the default source the antipodal node,
    maximising the source–sink distance.
    """

    def __init__(
        self,
        length: int,
        radius: float = 10.0,
        source: Optional[NodeId] = None,
        sink: Optional[NodeId] = None,
    ) -> None:
        if length < 3:
            raise TopologyError("a ring topology needs at least 3 nodes")
        if radius <= 0:
            raise TopologyError("ring radius must be positive")
        self._length = length
        adj: Adjacency = {n: {} for n in range(length)}
        for n in range(length - 1):
            add_edge(adj, n, n + 1)
        add_edge(adj, length - 1, 0)
        positions = {}
        for n in range(length):
            angle = 2.0 * math.pi * n / length
            positions[n] = Coordinate(radius * math.cos(angle), radius * math.sin(angle))
        if sink is None:
            sink = 0
        if source is None:
            source = (sink + length // 2) % length
        super().__init__(
            adj,
            sink=sink,
            source=source,
            positions=positions,
            name=f"ring-{length}",
        )

    @property
    def length(self) -> int:
        """Number of nodes on the ring."""
        return self._length
