"""ASCII visualisation of grids, schedules and attacker paths.

Terminal-friendly views used by the CLI and the examples: a grid of
slot numbers (the attacker's landscape), role markers (source, sink,
decoy path) and attacker trajectories.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Set

from .core import Schedule
from .errors import TopologyError
from .topology import GridTopology, NodeId


def render_slot_grid(
    grid: GridTopology,
    schedule: Schedule,
    highlight: Optional[Iterable[NodeId]] = None,
) -> str:
    """Render the slot assignment of a grid as fixed-width text.

    Highlighted nodes (e.g. the decoy path) are wrapped in ``[ ]``; the
    sink is wrapped in ``( )``, the source in ``{ }``.
    """
    marked: Set[NodeId] = set(highlight) if highlight is not None else set()
    rows = []
    for r in range(grid.size):
        cells = []
        for c in range(grid.size):
            node = grid.node_at(r, c)
            text = str(schedule.slot_of(node)) if node in schedule else "?"
            if node == grid.sink:
                text = f"({text})"
            elif grid.has_source and node == grid.source:
                text = f"{{{text}}}"
            elif node in marked:
                text = f"[{text}]"
            cells.append(text.rjust(5))
        rows.append(" ".join(cells))
    return "\n".join(rows)


def render_roles(
    grid: GridTopology,
    attacker_path: Sequence[NodeId] = (),
    decoy_path: Sequence[NodeId] = (),
    search_path: Sequence[NodeId] = (),
) -> str:
    """Render the grid as role glyphs.

    ``S`` source, ``K`` sink, ``a`` attacker trail, ``A`` attacker final
    position, ``d`` decoy path, ``s`` search path, ``.`` plain node.
    Later categories override earlier ones, so the attacker trail is
    visible on top of the paths it follows.
    """
    glyphs = {}
    for node in search_path:
        glyphs[node] = "s"
    for node in decoy_path:
        glyphs[node] = "d"
    for node in attacker_path:
        glyphs[node] = "a"
    if attacker_path:
        glyphs[attacker_path[-1]] = "A"
    glyphs[grid.sink] = "K"
    if grid.has_source:
        glyphs[grid.source] = "S"

    rows = []
    for r in range(grid.size):
        rows.append(
            " ".join(
                glyphs.get(grid.node_at(r, c), ".") for c in range(grid.size)
            )
        )
    legend = "S=source K=sink A=attacker-end a=attacker d=decoy s=search .=node"
    return "\n".join(rows) + "\n" + legend


def render_attacker_path(
    grid: GridTopology, path: Sequence[NodeId]
) -> str:
    """One-line description of an attacker trajectory with coordinates."""
    if not path:
        return "(no movement)"
    parts = []
    for node in path:
        if node not in grid:
            raise TopologyError(f"path node {node} is not on the grid")
        row, col = grid.coordinates_of(node)
        parts.append(f"{node}({row},{col})")
    return " -> ".join(parts)
