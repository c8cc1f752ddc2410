"""Phase 2 — the node locator (Figure 3), centralised form.

The search starts at the sink and repeatedly descends to the
minimum-slot child — i.e. it predicts and follows the very path a
slot-gradient attacker will take — for ``SD`` (search distance) hops.
The node reached must have a *spare potential parent* (a toward-sink
neighbour besides its own parent and the search predecessor) to host a
redirection; if it does not, the search keeps wandering (the paper's
``d = 0`` fallback branch) until a suitable node is found.

The distributed message-passing version lives in
:mod:`repro.slp.distributed`; this module is its deterministic
equivalent used by the experiment harness and the verifier benches.
"""

from __future__ import annotations

import random
from typing import FrozenSet, List, Optional, Tuple

from ..core import Schedule
from ..errors import ProtocolError
from ..records import Record
from ..topology import NodeId, Topology


class SearchResult(Record):
    """Outcome of the Phase 2 search.

    Attributes
    ----------
    start_node:
        The node selected to start the redirection (Figure 3's node with
        ``startNode = 1``).
    path:
        The search path from the sink to ``start_node`` inclusive; these
        nodes form the ``from`` set the decoy path must avoid.
    arrived_from:
        The predecessor that delivered the final search hop (``k`` in
        Figure 3) — also excluded from the decoy choices.
    """

    start_node: NodeId
    path: Tuple[NodeId, ...]
    arrived_from: NodeId

    @property
    def from_set(self) -> FrozenSet[NodeId]:
        """Nodes the redirection must avoid (the search path)."""
        return frozenset(self.path)


def _spare_parents(
    topology: Topology,
    schedule: Schedule,
    node: NodeId,
    excluded,
) -> List[NodeId]:
    """Potential parents of ``node`` besides its parent and ``excluded``.

    In Phase 1 a node's potential parents are the toward-sink neighbours
    it heard before assigning; centrally those are exactly the
    neighbours one hop closer to the sink (``Npar \\ {par, k}``).
    ``excluded`` holds the nodes the candidate must avoid — in the
    distributed protocol that is the node's local ``from`` set, i.e. the
    search forwarders it actually heard, which is its predecessor (not
    the whole search path: distant path nodes were never audible).
    """
    parent = schedule.parent_of(node)
    banned = set(excluded)
    return [
        m
        for m in topology.shortest_path_children(node)
        if m != parent and m != topology.sink and m not in banned
    ]


def _attacker_next(
    schedule: Schedule, topology: Topology, node: NodeId
) -> Optional[NodeId]:
    """The next node a slot-gradient attacker standing at ``node`` visits:
    its minimum-slot audible neighbour, provided that is downhill.

    Figure 3's message-passing search approximates this with the
    minimum-slot *child* (the only slots a node is guaranteed to know);
    the centralised search predicts the attacker exactly, which is the
    search's stated purpose — finding "a suitable location in the
    network for where redirection can occur" on the attacker's route.
    The literal child-based walk is implemented by the distributed
    :class:`~repro.slp.process.SlpNodeProcess`.
    """
    audible = [
        m for m in topology.neighbours(node) if m != topology.sink
    ]
    if not audible:
        return None
    nxt = min(audible, key=lambda m: (schedule.slot_of(m), m))
    if node != topology.sink and schedule.slot_of(nxt) >= schedule.slot_of(node):
        return None  # the attacker camps at a local minimum
    return nxt


def locate_redirection_node(
    topology: Topology,
    schedule: Schedule,
    search_distance: int,
    rng: Optional[random.Random] = None,
) -> SearchResult:
    """Run the Phase 2 search and return the redirection start node.

    Parameters
    ----------
    topology, schedule:
        The network and its Phase 1 DAS schedule.
    search_distance:
        ``SD`` — hops the search travels down the predicted attacker
        path before looking for a host (Table I uses 3 and 5).
    rng:
        Tie-break source for the wandering fallback; defaults to a
        deterministic (identifier-ordered) walk.

    Raises
    ------
    ProtocolError
        If no node with a spare potential parent is reachable — only
        possible on degenerate topologies such as a pure line.
    """
    if search_distance < 1:
        raise ProtocolError("search distance must be at least 1 hop")
    rng = rng if rng is not None else random.Random(0)

    path: List[NodeId] = [topology.sink]
    current = topology.sink
    # Descend SD hops along the predicted attacker route (Figure 3's
    # d > 0 branch; see _attacker_next for the child-vs-neighbour note).
    for _ in range(search_distance):
        nxt = _attacker_next(schedule, topology, current)
        if nxt is None:
            # Dead end before d reached 0: wander like the d = 0 branch.
            break
        path.append(nxt)
        current = nxt

    # d = 0: current must host the redirection, else keep wandering.
    visited = set(path)
    budget = topology.num_nodes  # wandering bound; the search must terminate
    while budget > 0:
        predecessor = path[-2] if len(path) >= 2 else topology.sink
        if len(path) > 1 and _spare_parents(
            topology, schedule, current, (predecessor,)
        ):
            return SearchResult(
                start_node=current,
                path=tuple(path),
                arrived_from=predecessor,
            )
        # Figure 3 fallback: continue along the predicted attacker route,
        # else a child, else any neighbour but the parent, avoiding
        # places already visited when possible.
        onward = _attacker_next(schedule, topology, current)
        children = [c for c in schedule.children_of(current) if c not in visited]
        if onward is not None and onward not in visited:
            nxt = onward
        elif children:
            nxt = min(children, key=lambda c: (schedule.slot_of(c), c))
        else:
            parent = schedule.parent_of(current)
            options = [
                m
                for m in topology.neighbours(current)
                if m != parent and m not in visited
            ]
            if not options:
                options = [
                    m for m in topology.neighbours(current) if m != parent
                ]
            if not options:
                raise ProtocolError(
                    f"search stranded at node {current} with no onward neighbour"
                )
            nxt = rng.choice(sorted(options))
        path.append(nxt)
        visited.add(nxt)
        current = nxt
        budget -= 1

    raise ProtocolError(
        "no node with a spare potential parent found within "
        f"{topology.num_nodes} search steps on {topology.name!r}"
    )
