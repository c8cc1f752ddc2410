"""Node identity and placement primitives.

A WSN node is a computing device with a unique identifier (paper §III-A).
Throughout the library node identifiers are plain ``int`` values — this
keeps them hashable, orderable (needed by the deterministic tie-breaking
rules of the Phase 1 protocol) and cheap to copy between processes.
"""

from __future__ import annotations

import math

from ..records import Record

#: Type alias for node identifiers.  Kept as ``int`` for cheap hashing and
#: the identifier-based tie-breaking used by the distributed protocols.
NodeId = int


class Coordinate(Record, order=True):
    """A 2-D physical position in metres.

    The paper places nodes on a plane with 4.5 m spacing; positions are
    used by the unit-disk communication model and by the visualiser.
    """

    x: float
    y: float

    def distance_to(self, other: "Coordinate") -> float:
        """Return the Euclidean distance to ``other`` in metres."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def __iter__(self):
        yield self.x
        yield self.y


class Placement(Record):
    """A node identifier bound to a physical position."""

    node: NodeId
    position: Coordinate

    def distance_to(self, other: "Placement") -> float:
        """Return the Euclidean distance between two placed nodes."""
        return self.position.distance_to(other.position)
