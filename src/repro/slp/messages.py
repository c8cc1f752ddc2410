"""Wire messages of Phases 2 and 3 (Figures 3 and 4)."""

from __future__ import annotations

from ..records import Record

from ..topology import NodeId


class SearchMessage(Record):
    """The ``SEARCH`` broadcast of Figure 3.

    Attributes
    ----------
    sender:
        The forwarding node ``i`` (receivers add it to their ``from``
        set so the redirection avoids the search path).
    target:
        ``aNode`` — the node that should process this hop of the search.
    distance:
        Remaining hops ``d``; the node receiving ``d = 0`` evaluates
        whether it can start a redirection.
    """

    sender: NodeId
    target: NodeId
    distance: int
    #: Engineering guard absent from the paper's message (Figure 3 lets
    #: the d = 0 search wander indefinitely): a hop budget after which a
    #: fruitless search dies instead of circulating forever.
    ttl: int = 64


class ChangeMessage(Record):
    """The ``CHANGE`` broadcast of Figure 4.

    Attributes
    ----------
    sender:
        The node ``i`` (or ``p`` in Figure 4's guard) sending the change.
    target:
        ``aNode`` — the next node to pull onto the decoy path.
    base_slot:
        ``nSlot`` — the minimum slot in the sender's closed
        neighbourhood; the target adopts ``base_slot − 1``, planting a
        strictly decreasing gradient along the decoy path.
    remaining:
        ``d`` — how many further decoy nodes to recruit after the target.
    """

    sender: NodeId
    target: NodeId
    base_slot: int
    remaining: int
