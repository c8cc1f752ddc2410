"""Wire messages of the Phase 1 DAS protocol (Figure 2).

Messages are small frozen records.  ``DissemMessage`` carries the
sender's view of its neighbourhood — the ``{Ninfo[j] | j ∈ myN}`` payload
of the ``dissem`` action — which is how nodes learn their 2-hop state
for collision detection.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..records import Record, factory
from ..topology import NodeId

#: Placeholder for "unknown" hop/slot, the paper's ``⊥``.
UNKNOWN = None


class NodeInfo(Record):
    """One ``Ninfo`` entry: what a node knows about one of its neighbours."""

    hop: Optional[int] = UNKNOWN
    slot: Optional[int] = UNKNOWN

    @property
    def assigned(self) -> bool:
        """Whether the described node has chosen a slot."""
        return self.slot is not UNKNOWN


class HelloMessage(Record):
    """Neighbour-discovery beacon sent during the NDP periods (Table I)."""

    sender: NodeId


class DissemMessage(Record):
    """The ``DISSEM`` broadcast of Figure 2.

    Attributes
    ----------
    normal:
        The paper's ``Normal`` flag — ``True`` for ordinary state
        dissemination, ``False`` for an *update* instructing children to
        repair their slots after Phase 3 refinement.
    sender:
        The broadcasting node ``i``.
    ninfo:
        The sender's neighbourhood view ``{j: Ninfo[j]}``, including its
        own entry — receivers merge this to learn 2-hop state.
    parent:
        The sender's chosen aggregation parent (``⊥`` while unassigned).
    """

    normal: bool
    sender: NodeId
    ninfo: Dict[NodeId, NodeInfo] = factory(dict)
    parent: Optional[NodeId] = None

    def entry(self, node: NodeId) -> NodeInfo:
        """The sender's knowledge of ``node`` (``⊥`` entry when absent)."""
        return self.ninfo.get(node, NodeInfo())

    def unassigned_neighbours(self) -> Tuple[NodeId, ...]:
        """Nodes the sender believes have no slot yet — the paper's
        ``Others`` set used for sibling ranking."""
        return tuple(
            sorted(
                n
                for n, info in self.ninfo.items()
                if n != self.sender and not info.assigned
            )
        )
