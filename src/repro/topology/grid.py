"""Square-grid topologies — the network layout of the paper's evaluation.

§VI-A: "The network layout used was a square grid with dimensions of
11×11, 15×15 and 21×21, with the top-left node being the source and the
centre node the sink.  The distance between each node pair was set to
4.5 m, allowing only for vertical and horizontal message transmission."

:class:`GridTopology` reproduces that layout exactly: row-major node
identifiers, 4-neighbour connectivity, source at the top-left corner and
sink at the centre (odd side lengths have an exact centre node).
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..errors import TopologyError
from .node import Coordinate, NodeId
from .topology import Adjacency, Topology, add_edge

#: Node spacing used by the paper's evaluation, in metres.
PAPER_NODE_SPACING_M = 4.5

#: Grid side lengths evaluated in Figure 5 of the paper.
PAPER_GRID_SIZES = (11, 15, 21)


class GridTopology(Topology):
    """An ``n × n`` grid WSN with the paper's source/sink placement.

    Node identifiers are row-major: node ``r * size + c`` sits at row
    ``r``, column ``c``.  The top-left node (id 0) is the default source
    and the centre node the default sink.

    Parameters
    ----------
    size:
        Side length of the grid (number of nodes per row/column).
    spacing:
        Physical distance between adjacent nodes in metres.
    source, sink:
        Override the paper's default placement when given.
    """

    def __init__(
        self,
        size: int,
        spacing: float = PAPER_NODE_SPACING_M,
        source: Optional[NodeId] = None,
        sink: Optional[NodeId] = None,
    ) -> None:
        if size < 2:
            raise TopologyError("grid size must be at least 2x2")
        if spacing <= 0:
            raise TopologyError("grid spacing must be positive")
        self._size = size
        self._spacing = spacing

        adj: Adjacency = {}
        positions = {}
        for row in range(size):
            for col in range(size):
                node = row * size + col
                adj[node] = {}
                positions[node] = Coordinate(col * spacing, row * spacing)
                if col > 0:
                    add_edge(adj, node, node - 1)
                if row > 0:
                    add_edge(adj, node, node - size)

        if sink is None:
            sink = (size // 2) * size + (size // 2)
        if source is None:
            source = 0
        super().__init__(
            adj,
            sink=sink,
            source=source,
            positions=positions,
            name=f"grid-{size}x{size}",
        )

    @property
    def size(self) -> int:
        """Side length of the grid."""
        return self._size

    @property
    def spacing(self) -> float:
        """Physical node spacing in metres."""
        return self._spacing

    def coordinates_of(self, node: NodeId) -> Tuple[int, int]:
        """Return the ``(row, column)`` grid coordinates of ``node``."""
        if node not in self:
            raise TopologyError(f"node {node!r} is not part of the grid")
        return divmod(node, self._size)

    def node_at(self, row: int, col: int) -> NodeId:
        """Return the node identifier at grid position ``(row, col)``."""
        if not (0 <= row < self._size and 0 <= col < self._size):
            raise TopologyError(f"grid position ({row}, {col}) is out of bounds")
        return row * self._size + col


def paper_grid(size: int) -> GridTopology:
    """Return the exact grid used in the paper's evaluation.

    ``size`` must be one of :data:`PAPER_GRID_SIZES` (11, 15 or 21); the
    source is the top-left corner and the sink the centre node, with
    4.5 m spacing.
    """
    if size not in PAPER_GRID_SIZES:
        raise TopologyError(
            f"the paper evaluates grids of size {PAPER_GRID_SIZES}, not {size}"
        )
    return GridTopology(size)
