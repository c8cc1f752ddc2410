"""Phase 3 — slot refinement (Figure 4), centralised form.

Starting from the Phase 2 node, the refinement recruits up to ``CL``
(change length) nodes onto a *decoy path*:

* the start node picks one of its spare potential parents (never its
  own parent, never a node on the search path) as the first decoy node;
* each decoy node adopts a slot one below the minimum slot in the
  previous node's closed neighbourhood — planting a strictly decreasing
  slot gradient that out-competes every legitimate slot nearby;
* each decoy node then recruits a further neighbour (again avoiding its
  parent and the search path) until the length budget runs out or no
  candidate remains (the paper: "until it encounters a node with only
  one potential parent").

A slot-gradient attacker reaching the area is therefore pulled along
the decoy path away from the source while the safety period burns down.

Afterwards the update cascade of Figure 2's ``receiveU`` repairs the
aggregation tree: any child whose slot is no longer strictly below its
parent's drops to ``parent − 1``, recursively.  The result is still a
*weak* DAS (every node keeps its parent transmitting later); strongness
is intentionally sacrificed — that is exactly the strong/weak
distinction the paper formalises.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core import Schedule
from ..errors import ProtocolError
from ..records import Record
from ..topology import NodeId, Topology
from .search import SearchResult


class RefinementResult(Record):
    """Outcome of Phase 3.

    Attributes
    ----------
    schedule:
        The refined (weak DAS) schedule, shifted into the positive range.
    decoy_path:
        The recruited decoy nodes in order (first is the start node's
        chosen spare parent).
    start_node:
        The Phase 2 node that triggered the change.
    cascade_changes:
        How many ``receiveU``-style child repairs the update phase made —
        part of the message-overhead accounting.
    """

    schedule: Schedule
    decoy_path: Tuple[NodeId, ...]
    start_node: NodeId
    cascade_changes: int


def _closed_neighbourhood_min(
    topology: Topology, slots: Dict[NodeId, int], node: NodeId
) -> int:
    """``min({Ninfo[k].slot | k ∈ myN} ∪ {slot})`` of Figure 4."""
    values = [slots[node]]
    values.extend(slots[m] for m in topology.neighbours(node))
    return min(values)


def _pick_decoy(
    topology: Topology,
    candidates: Sequence[NodeId],
    source: Optional[NodeId],
    rng: random.Random,
) -> NodeId:
    """Figure 4's ``choose``: prefer candidates that divert the attacker
    *away* from the source (max hop distance from it), tie-break randomly."""
    pool = sorted(candidates)
    if source is not None:
        far = max(topology.hop_distance(c, source) for c in pool)
        pool = [c for c in pool if topology.hop_distance(c, source) == far]
    return rng.choice(pool)


def _subtree(schedule: Schedule, root: NodeId) -> Set[NodeId]:
    """All aggregation-tree descendants of ``root``, including it."""
    members = {root}
    frontier = [root]
    while frontier:
        node = frontier.pop()
        for child in schedule.children_of(node):
            if child not in members:
                members.add(child)
                frontier.append(child)
    return members


def _cascade_and_collisions(
    topology: Topology,
    schedule: Schedule,
    slots: Dict[NodeId, int],
) -> int:
    """The weak-mode repair fixpoint after slot changes.

    Interleaves two monotone rules until stable:

    * Figure 2 ``receiveU``: children stay strictly below their parents
      (the weak DAS ordering obligation — the *strong* rule is
      deliberately not enforced, as it would erase the decoy gradient);
    * Figure 2 collision resolution: equal slots within a 2-hop
      neighbourhood are separated, the deeper node (or greater
      identifier at equal depth) yielding.

    Returns the number of repairs made (the update-phase overhead).
    """
    repairs = 0
    # Per-fixpoint tables: the parent map never changes while slots
    # move; the collision pairs and tie-break hops are built once per
    # topology (see das.centralized._repair).
    tables = topology.repair_tables()
    nodes, collision_pairs, hop = tables.nodes, tables.collision_pairs, tables.hop
    parent_of = {n: schedule.parent_of(n) for n in nodes}
    parented = [n for n in nodes if parent_of[n] is not None]
    changed = True
    guard = 20 * topology.num_nodes
    while changed:
        if guard <= 0:
            raise ProtocolError("update cascade did not converge")
        guard -= 1
        changed = False
        for n in parented:
            parent_slot = slots[parent_of[n]]
            if slots[n] >= parent_slot:
                slots[n] = parent_slot - 1
                repairs += 1
                changed = True
        for n in nodes:
            for m in collision_pairs[n]:
                if slots[n] == slots[m]:
                    loser = m if (hop[m], m) > (hop[n], n) else n
                    slots[loser] -= 1
                    repairs += 1
                    changed = True
    return repairs


#: Outer rounds re-asserting the decoy gradient against the cascade.
_GRADIENT_ROUNDS = 5


def _maintain_decoy_gradient(
    topology: Topology,
    schedule: Schedule,
    slots: Dict[NodeId, int],
    chain: Sequence[NodeId],
) -> int:
    """Enforce the paper's redirection invariant, then repair, repeatedly.

    §V is explicit about what the decoy path must achieve: "For the
    attacker to move to n first, the slot value of n needs to be smaller
    than all the other nodes in m's neighbourhood."  A single slot
    assignment establishes this only transiently — the ``receiveU``
    cascade then drops each decoy node's *subtree* below the decoy path,
    which would divert the attacker into the subtree instead.  The
    protocol's continuing dissemination re-asserts the invariant, which
    this function mirrors: a bounded number of rounds alternating

    1. a gradient sweep — each consecutive decoy node drops below every
       *non-basin* node in its predecessor's closed neighbourhood (the
       basin — every decoy node plus its cascaded subtree — is exempt:
       the ``receiveU`` cascade forces those below the decoy path anyway,
       and an attacker falling into a cascaded subtree is still diverted
       into the basin, away from the source), and
    2. the cascade/collision fixpoint.

    Bounding the rounds keeps the procedure terminating on graphs where
    gradient and cascade constraints interleave pathologically (the
    final cascade pass always runs, so weak-DAS validity never depends
    on the gradient converging).
    """
    repairs = 0
    sink = topology.sink
    basin: Set[NodeId] = set()
    for decoy in chain[1:]:
        basin |= _subtree(schedule, decoy)
    for _ in range(_GRADIENT_ROUNDS):
        tightened = False
        for a, b in zip(chain, chain[1:]):
            comp = set(topology.neighbours(a))
            comp.add(a)
            comp -= basin
            comp.discard(b)
            comp.discard(sink)
            if not comp:
                continue
            floor = min(slots[c] for c in comp)
            if slots[b] >= floor:
                slots[b] = floor - 1
                repairs += 1
                tightened = True
        repairs += _cascade_and_collisions(topology, schedule, slots)
        if not tightened:
            break
    return repairs


def refine_slots(
    topology: Topology,
    schedule: Schedule,
    search: SearchResult,
    change_length: int,
    seed: Optional[int] = None,
    avoid_source_pull: bool = True,
) -> RefinementResult:
    """Apply Phase 3 to ``schedule`` and return the refined schedule.

    Parameters
    ----------
    topology, schedule:
        The network and its Phase 1 schedule.
    search:
        The Phase 2 outcome (start node and the ``from`` set to avoid).
    change_length:
        ``CL`` — the decoy path length budget (Table I: ``Δss − SD``).
    seed:
        Seed for the decoy-choice tie-breaks.
    avoid_source_pull:
        When ``True`` (default) the ``choose`` preference steers decoy
        recruitment away from the source, the natural reading of the
        redirection's purpose; ``False`` picks uniformly, an ablation.

    Notes
    -----
    The start node itself keeps its slot (Figure 4 only reassigns the
    recruited ``aNode`` chain).  The decoy path may end early when no
    eligible neighbour remains; the returned path reports what was
    actually built.
    """
    if change_length < 1:
        raise ProtocolError("change length must be at least 1")
    rng = random.Random(seed)
    source = topology.source if (avoid_source_pull and topology.has_source) else None

    slots = schedule.slots()
    from_set: Set[NodeId] = set(search.from_set)
    decoy_path: List[NodeId] = []

    # --- startR: the first decoy node must be a *spare potential parent*.
    # The node's local `from` set is what it heard during the search —
    # its predecessor — not the whole search path (distant path nodes
    # were never audible to it); this matches the Phase 2 suitability
    # check exactly.
    start = search.start_node
    start_parent = schedule.parent_of(start)
    first_candidates = [
        m
        for m in topology.shortest_path_children(start)
        if m != start_parent
        and m != topology.sink
        and m != search.arrived_from
    ]
    if not first_candidates:
        raise ProtocolError(
            f"start node {start} has no spare potential parent; "
            "Phase 2 should not have selected it"
        )
    current = start
    base = _closed_neighbourhood_min(topology, slots, current)
    target = _pick_decoy(topology, first_candidates, source, rng)
    remaining = change_length

    # --- receiveC chain: recruit up to CL decoy nodes.
    while True:
        slots[target] = base - 1
        decoy_path.append(target)
        from_set.add(current)
        current = target
        remaining -= 1
        if remaining <= 0:
            break
        base = _closed_neighbourhood_min(topology, slots, current)
        parent = schedule.parent_of(current)
        candidates = [
            m
            for m in topology.neighbours(current)
            if m != parent
            and m != topology.sink
            and m not in from_set
            and m not in decoy_path
        ]
        if not candidates:
            break  # "until it encounters a node with only one potential parent"
        if source is not None:
            here = topology.hop_distance(current, source)
            if all(topology.hop_distance(c, source) < here for c in candidates):
                # Every onward choice walks the decoy toward the source —
                # extending it would guide the attacker instead of
                # diverting it.  End the path early.
                break
        target = _pick_decoy(topology, candidates, source, rng)

    refined = schedule.with_slots({n: slots[n] for n in slots})
    repaired_slots = refined.slots()
    cascade_changes = _maintain_decoy_gradient(
        topology, refined, repaired_slots, chain=[start, *decoy_path]
    )
    refined = refined.with_slots(repaired_slots)

    # Shift into the positive range required by Schedule (uniform shifts
    # preserve all order/equality relations).
    min_slot = min(repaired_slots.values())
    if min_slot < 1:
        shift = 1 - min_slot
        refined = refined.with_slots(
            {n: s + shift for n, s in refined.slots().items()}
        )

    return RefinementResult(
        schedule=refined,
        decoy_path=tuple(decoy_path),
        start_node=start,
        cascade_changes=cascade_changes,
    )
