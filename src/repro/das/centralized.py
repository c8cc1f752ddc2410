"""Centralised (seeded) DAS schedule generator.

This is the deterministic equivalent of the distributed Phase 1 protocol
(Figure 2): it performs the same assignment — sink takes the top slot
``Δ``, each node picks a minimum-hop parent and a slot below the minimum
it has seen, sibling ranks spread siblings over distinct slots — but as
a plain algorithm over the topology instead of message exchange.

Run-to-run variance in TOSSIM comes from message *arrival order*:
parents, sibling ranks and collision-resolution outcomes all depend on
who was heard first.  The generator reproduces that with a seeded
random **priority** per node used for every tie-break (wave order,
parent choice, collision loser).  One seed ↦ one plausible outcome of
the distributed protocol.  Using priorities instead of node identifiers
matters: identifier-based tie-breaks (as in the literal guarded-command
text) systematically push high-identifier regions to lower slots, which
would bias the attacker's slot-gradient descent toward one particular
corner of a grid; timing-derived tie-breaks, like TOSSIM's, are
symmetric.  Benchmarks use this generator for the operational phase so
that thousands of repeats stay cheap; the distributed protocol itself is
exercised and validated in the tests and examples.

A repair fixpoint then enforces the two Def. 2 obligations the greedy
assignment can miss — strong ordering (condition 3) and 2-hop collision
freedom (condition 4) — by monotonically decrementing slots, mirroring
the protocol's own collision-resolution rule ("one of the two colliding
neighbours will update its slot").
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from ..core import Schedule
from ..errors import ProtocolError
from ..topology import NodeId, Topology

#: Default frame capacity, matching Table I (``slots = 100``).
DEFAULT_NUM_SLOTS = 100


def _priorities(
    topology: Topology, rng: Optional[random.Random]
) -> Dict[NodeId, float]:
    """Per-node tie-break priorities (lower = earlier/heard-first).

    With ``rng`` these are uniform random draws (TOSSIM-like timing);
    without, the node identifier — fully deterministic, used by tests.
    """
    if rng is None:
        return {n: float(n) for n in topology.nodes}
    return {n: rng.random() for n in topology.nodes}


def _wave_order(
    topology: Topology, priority: Dict[NodeId, float]
) -> List[NodeId]:
    """Nodes in BFS-wave order from the sink, waves sorted by priority.

    The priority order stands in for dissemination arrival order: within
    a wave (one hop ring), which node assigns first is timing-dependent
    in the distributed protocol.
    """
    order: List[NodeId] = []
    for layer in topology.bfs_layers():
        order.extend(sorted(layer, key=lambda n: (priority[n], n)))
    return order


def _repair(
    topology: Topology,
    slots: Dict[NodeId, int],
    priority: Dict[NodeId, float],
    max_passes: int,
) -> None:
    """Monotone decrement fixpoint enforcing Def. 2 conditions 3 and 4.

    Every adjustment strictly decreases one slot, so the loop terminates
    whenever a stable assignment exists within the pass budget; grids,
    lines, rings and random unit-disk graphs all converge in a handful
    of passes (asserted by the test-suite).

    Each pass checks the nodes in ascending order, condition 3 first,
    but skips a check none of whose read slots moved since it last ran:
    such a check finds nothing to repair.  A condition-3 check leaves
    its node below every shortest-path child, and only a child's
    decrement can undo that; a collision check that changed nothing
    left its pairs distinct, and one that changed a slot it reads is
    due again.  Every adjustment, its order and the pass count are
    exactly those of full passes.
    """
    # The per-pass topology queries as flat position-indexed tables,
    # built once per topology (see Topology.repair_tables): the fixpoint
    # re-reads the same structure every pass and every seed.  The
    # collision pairs keep the 2-hop sets' iteration order, which feeds
    # the tie-breaks.
    tables = topology.repair_tables()
    nodes = tables.nodes
    spc = tables.spc_at
    pairs = tables.pairs_at
    hop = tables.hop_at
    spc_readers = tables.spc_readers
    pair_readers = tables.pair_readers
    current = [slots[n] for n in nodes]
    positions = range(len(nodes))
    # Which checks are due: all at first, then the readers of every slot
    # that moved.  A reader behind the pass's position is checked in the
    # next pass, as a full pass would find it.
    ordering_due = [True] * len(nodes)
    collision_due = [True] * len(nodes)
    for _ in range(max_passes):
        changed = False

        # Def. 2 condition 3: every shortest-path-toward-sink neighbour
        # must transmit later, i.e. hold a strictly larger slot.
        for i in positions:
            if not ordering_due[i]:
                continue
            ordering_due[i] = False
            slot_n = current[i]
            for m in spc[i]:
                if slot_n >= current[m]:
                    slot_n = current[m] - 1
                    changed = True
            if slot_n != current[i]:
                current[i] = slot_n
                for r in spc_readers[i]:
                    ordering_due[r] = True
                for r in pair_readers[i]:
                    collision_due[r] = True

        # Def. 2 condition 4 via Def. 1: no slot shared within 2 hops.
        # The deeper node yields; at equal depth the lower-priority
        # (later-heard) node yields, as arrival order would dictate.
        for i in positions:
            if not collision_due[i]:
                continue
            collision_due[i] = False
            for m in pairs[i]:
                if current[i] == current[m]:
                    n, k = nodes[i], nodes[m]
                    key_n = (hop[i], priority[n], n)
                    key_m = (hop[m], priority[k], k)
                    loser = m if key_m > key_n else i
                    current[loser] -= 1
                    changed = True
                    for r in spc_readers[loser]:
                        ordering_due[r] = True
                    for r in pair_readers[loser]:
                        collision_due[r] = True

        if not changed:
            for n, slot in zip(nodes, current):
                slots[n] = slot
            return
    raise ProtocolError(
        f"slot repair did not converge within {max_passes} passes "
        f"on topology {topology.name!r}"
    )


def centralized_das_schedule(
    topology: Topology,
    num_slots: int = DEFAULT_NUM_SLOTS,
    seed: Optional[int] = None,
    jitter: bool = True,
    max_repair_passes: Optional[int] = None,
) -> Schedule:
    """Generate a strong DAS schedule the way Phase 1 would.

    Parameters
    ----------
    topology:
        The network to schedule.
    num_slots:
        The sink's initial slot ``Δ`` (Figure 2's ``size`` constant).
        Raw slot values may end below 1 after sibling ranking and repair;
        the result is then shifted upward uniformly, which preserves all
        ordering/equality properties.  Use :meth:`Schedule.compressed`
        to fit a frame when raw values overflow it.
    seed:
        Seed for the arrival-order priorities.  Two calls with the same
        seed return the same schedule.
    jitter:
        When ``False``, priorities are node identifiers — a single
        canonical schedule, convenient in unit tests.
    max_repair_passes:
        Budget for the repair fixpoint (default scales with network size).

    Returns
    -------
    Schedule
        A schedule satisfying Def. 2 (strong DAS); this is asserted by
        the test-suite via :func:`~repro.core.check_strong_das`.
    """
    rng = random.Random(seed) if jitter else None
    sink = topology.sink
    priority = _priorities(topology, rng)
    order = _wave_order(topology, priority)
    hop = topology.repair_tables().hop

    slots: Dict[NodeId, int] = {sink: num_slots}
    parents: Dict[NodeId, Optional[NodeId]] = {sink: None}
    arrival_index: Dict[NodeId, int] = {sink: 0}
    children_count: Dict[NodeId, int] = {}

    for position, n in enumerate(order, start=1):
        if n == sink:
            continue
        assigned_neighbours = [m for m in topology.neighbours(n) if m in slots]
        if not assigned_neighbours:
            raise ProtocolError(
                f"node {n} reached before any neighbour was assigned; "
                "wave order is inconsistent with the topology"
            )
        # Figure 2 `process`: parent = minimum-hop potential parent; the
        # arrival index stands in for "first heard" among equals.
        parent = min(
            assigned_neighbours,
            key=lambda m: (hop[m], arrival_index[m], priority[m]),
        )
        # Sibling rank: how many children this parent has already served
        # (the position of `n` in the parent's Others set, in arrival terms).
        rank = children_count.get(parent, 0)
        children_count[parent] = rank + 1
        # "updates its slot to be less than the minimum of all slots seen"
        min_seen = min(slots[m] for m in assigned_neighbours)
        slots[n] = min_seen - rank - 1
        parents[n] = parent
        arrival_index[n] = position

    passes = max_repair_passes
    if passes is None:
        passes = max(50, 10 * topology.num_nodes)
    _repair(topology, slots, priority, passes)

    # Shift into the positive range required by Schedule; uniform shifts
    # change no ordering or equality relation.
    min_slot = min(slots.values())
    if min_slot < 1:
        shift = 1 - min_slot
        slots = {n: s + shift for n, s in slots.items()}
    return Schedule(slots, parents, sink)
