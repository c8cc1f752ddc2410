"""Application-layer data messages of the operational phase."""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet

from ..topology import NodeId


@dataclass(frozen=True)
class AggregateMessage:
    """One TDMA-slot broadcast during normal operation.

    §VI-A: "Each node periodically broadcasts a message in its time
    slot" — every node sends exactly one of these per period.  The
    payload is the aggregate a DAS exists to convergecast: the set of
    origins whose readings this node has folded in this period (its own
    plus everything received from its children before its slot fired).

    Attributes
    ----------
    sender:
        The broadcasting node.
    period:
        TDMA period index the readings belong to.
    slot:
        The sender's slot (eavesdroppers exploit this implicitly through
        transmission *timing*; it is carried here for trace audits).
    origins:
        Identifiers of the nodes whose current-period readings are
        aggregated into this message.
    """

    sender: NodeId
    period: int
    slot: int
    origins: FrozenSet[NodeId]
