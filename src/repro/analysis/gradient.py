"""Slot-gradient field analysis.

A TDMA slot assignment induces a *gradient field* over the network: a
first-heard attacker standing at node ``v`` always steps to the
minimum-slot audible neighbour, so every node has a unique successor
and the field decomposes into descent paths that terminate in *basins*
(local minima).  Privacy analysis reduces to geometry: the source is
safe against the deterministic attacker exactly when the sink's descent
path misses it within the safety period.

These tools expose that geometry directly — which basin each node
drains to, where the sink's descent goes, how a refinement reshaped the
field — complementing the formal verifier (which answers yes/no with a
counterexample) with the *why*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core import Schedule
from ..errors import VerificationError
from ..topology import NodeId, Topology


def gradient_successor(
    topology: Topology, schedule: Schedule, node: NodeId
) -> Optional[NodeId]:
    """The next node a first-heard attacker at ``node`` moves to.

    ``None`` when ``node`` is a local minimum of the field (its own slot
    is below every audible neighbour's): the attacker hears its own
    location's transmission first and camps.
    """
    audible = [
        m
        for m in topology.neighbours(node)
        if m in schedule and m != schedule.sink
    ]
    if not audible:
        return None
    nxt = min(audible, key=lambda m: (schedule.slot_of(m), m))
    if (
        node != schedule.sink
        and node in schedule
        and schedule.slot_of(nxt) >= schedule.slot_of(node)
    ):
        return None
    return nxt


def descent_path(
    topology: Topology,
    schedule: Schedule,
    start: Optional[NodeId] = None,
    max_steps: Optional[int] = None,
) -> Tuple[NodeId, ...]:
    """The full gradient descent from ``start`` (default: the sink).

    Descent is finite — slots strictly decrease along it — but a step
    bound can truncate it to a safety-period horizon.
    """
    node = start if start is not None else topology.sink
    if node not in topology:
        raise VerificationError(f"start node {node} is not in the topology")
    limit = max_steps if max_steps is not None else topology.num_nodes
    path = [node]
    for _ in range(limit):
        nxt = gradient_successor(topology, schedule, node)
        if nxt is None:
            break
        path.append(nxt)
        node = nxt
    return tuple(path)


@dataclass(frozen=True)
class GradientField:
    """The complete gradient structure of one schedule.

    Attributes
    ----------
    successor:
        Each node's descent successor (``None`` at local minima).
    basin_of:
        The local minimum each node's descent terminates in.
    minima:
        All local minima, sorted.
    """

    successor: Dict[NodeId, Optional[NodeId]]
    basin_of: Dict[NodeId, NodeId]
    minima: Tuple[NodeId, ...]


def gradient_field(topology: Topology, schedule: Schedule) -> GradientField:
    """Compute the full gradient field (successors, basins, minima)."""
    successor: Dict[NodeId, Optional[NodeId]] = {}
    for node in topology.nodes:
        successor[node] = gradient_successor(topology, schedule, node)

    basin_of: Dict[NodeId, NodeId] = {}

    def resolve(node: NodeId) -> NodeId:
        trail: List[NodeId] = []
        cursor = node
        while cursor not in basin_of and successor[cursor] is not None:
            trail.append(cursor)
            cursor = successor[cursor]
        terminal = basin_of.get(cursor, cursor)
        for visited in trail:
            basin_of[visited] = terminal
        basin_of[cursor] = terminal
        return terminal

    for node in topology.nodes:
        resolve(node)

    minima = tuple(sorted({basin_of[n] for n in topology.nodes}))
    return GradientField(successor=successor, basin_of=basin_of, minima=minima)


def predicts_capture(
    topology: Topology,
    schedule: Schedule,
    safety_periods: int,
    source: Optional[NodeId] = None,
    start: Optional[NodeId] = None,
) -> bool:
    """Whether the deterministic gradient descent captures the source.

    Equivalent to ``not verify_schedule(...).slp_aware`` for the paper's
    (1, 0, 1, s0, first-heard) attacker, but O(path length): each descent
    step is one period (downhill moves commit a period; Algorithm 1
    line 10).
    """
    src = source if source is not None else topology.source
    path = descent_path(topology, schedule, start=start, max_steps=safety_periods)
    return src in path


def refinement_footprint(
    topology: Topology, baseline: Schedule, refined: Schedule
) -> Dict[str, object]:
    """How a refinement reshaped the gradient field.

    Returns a report dict with the changed-successor nodes, the basins
    before and after, and whether the sink's descent was redirected —
    the analysis view of what Phase 3 achieved.
    """
    before = gradient_field(topology, baseline)
    after = gradient_field(topology, refined)
    redirected = [
        n
        for n in topology.nodes
        if before.successor[n] != after.successor[n]
    ]
    sink_before = descent_path(topology, baseline)
    sink_after = descent_path(topology, refined)
    return {
        "redirected_nodes": tuple(sorted(redirected)),
        "minima_before": before.minima,
        "minima_after": after.minima,
        "sink_descent_before": sink_before,
        "sink_descent_after": sink_after,
        "descent_changed": sink_before != sink_after,
    }
