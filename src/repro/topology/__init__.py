"""WSN topology substrate.

The paper models a WSN as an undirected graph with a unit-disk
communication model (§III-A) and evaluates on square grids (§VI-A).
This package provides the graph abstraction plus the concrete layouts
used by the tests, examples and benchmark harness.
"""

from .. import _lazy_exports

#: Submodule -> the public names it defines, each imported on first
#: access.
_EXPORTS = {
    "grid": (
        "PAPER_GRID_SIZES",
        "PAPER_NODE_SPACING_M",
        "GridTopology",
        "paper_grid",
    ),
    "line": (
        "LineTopology",
    ),
    "node": (
        "Coordinate",
        "NodeId",
        "Placement",
    ),
    "random_geometric": (
        "random_geometric_topology",
    ),
    "ring": (
        "RingTopology",
    ),
    "topology": (
        "Topology",
        "TopologyMetrics",
    ),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
