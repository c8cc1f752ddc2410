"""Line (path) topologies.

A line network is the simplest convergecast setting and is used heavily
by the test-suite: DAS slot assignment, attacker traces and the decoy
path construction all have closed-form expected behaviour on a line,
which makes violations easy to spot.
"""

from __future__ import annotations

from typing import Optional

from ..errors import TopologyError
from .node import Coordinate, NodeId
from .topology import Adjacency, Topology, add_edge


class LineTopology(Topology):
    """A path of ``length`` nodes: ``0 — 1 — … — length-1``.

    By default the sink is the last node and the source the first, which
    mirrors the paper's "source far from sink" evaluation posture.
    """

    def __init__(
        self,
        length: int,
        spacing: float = 4.5,
        source: Optional[NodeId] = None,
        sink: Optional[NodeId] = None,
    ) -> None:
        if length < 2:
            raise TopologyError("a line topology needs at least 2 nodes")
        if spacing <= 0:
            raise TopologyError("line spacing must be positive")
        self._length = length
        adj: Adjacency = {n: {} for n in range(length)}
        for n in range(length - 1):
            add_edge(adj, n, n + 1)
        positions = {n: Coordinate(n * spacing, 0.0) for n in range(length)}
        if sink is None:
            sink = length - 1
        if source is None:
            source = 0 if sink != 0 else length - 1
        super().__init__(
            adj,
            sink=sink,
            source=source,
            positions=positions,
            name=f"line-{length}",
        )

    @property
    def length(self) -> int:
        """Number of nodes on the line."""
        return self._length
