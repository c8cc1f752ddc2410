"""Checkers for the formal DAS definitions (Definitions 1–3).

These functions are the library's ground truth: the distributed Phase 1
protocol, the centralised generator and the Phase 3 refinement are all
tested against them, and the property-based tests assert that refinement
preserves (weak) DAS validity.

Each checker returns a :class:`DasCheckResult` carrying every violation
found (not just the first), so failures in tests and in the decision
procedure read like model-checker counterexamples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from ..topology import NodeId, Topology
from .schedule import Schedule

#: Violation kind constants (stable strings, usable in assertions).
MISSING_SLOT = "missing-slot"
UNKNOWN_NODE = "unknown-node"
ORDERING = "ordering"
COLLISION = "collision"


@dataclass(frozen=True)
class DasViolation:
    """A single violated constraint of Def. 2/3.

    Attributes
    ----------
    kind:
        One of :data:`MISSING_SLOT`, :data:`UNKNOWN_NODE`,
        :data:`ORDERING`, :data:`COLLISION`.
    nodes:
        The nodes involved (one for coverage/ordering, two for collisions).
    detail:
        Human-readable explanation, suitable for test failure output.
    """

    kind: str
    nodes: Tuple[NodeId, ...]
    detail: str

    def __str__(self) -> str:  # pragma: no cover - formatting helper
        return f"[{self.kind}] nodes={self.nodes}: {self.detail}"


@dataclass
class DasCheckResult:
    """Outcome of checking a schedule against Def. 2 or Def. 3."""

    strong: bool
    violations: List[DasViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether the schedule satisfies the definition."""
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok

    def violations_of_kind(self, kind: str) -> List[DasViolation]:
        """Return only the violations of a given kind."""
        return [v for v in self.violations if v.kind == kind]

    def summary(self) -> str:
        """One-line summary used by the CLI and test messages."""
        name = "strong" if self.strong else "weak"
        if self.ok:
            return f"schedule is a valid {name} DAS"
        return (
            f"schedule violates {name} DAS: "
            + "; ".join(str(v) for v in self.violations[:5])
            + ("" if len(self.violations) <= 5 else f" (+{len(self.violations) - 5} more)")
        )


def is_non_colliding(topology: Topology, schedule: Schedule, node: NodeId) -> bool:
    """Definition 1: is ``node``'s slot non-colliding?

    A slot ``i`` is non-colliding for ``n`` iff no member of the 2-hop
    neighbourhood ``CG(n)`` is assigned slot ``i``.
    """
    slot = schedule.slot_of(node)
    return all(
        m not in schedule or schedule.slot_of(m) != slot
        for m in topology.collision_neighbourhood(node)
    )


def _coverage_violations(topology: Topology, schedule: Schedule) -> List[DasViolation]:
    """Check Def. 2/3 conditions 1–2.

    Condition 1 (each node in at most one σi) holds by construction —
    :class:`Schedule` stores a single slot per node — so coverage reduces
    to condition 2: every node except the sink carries a slot, and no
    phantom senders exist outside the topology.
    """
    violations: List[DasViolation] = []
    for node in topology.nodes:
        if node == topology.sink:
            continue
        if node not in schedule:
            violations.append(
                DasViolation(
                    MISSING_SLOT,
                    (node,),
                    "node has no transmission slot (Def. 2/3 condition 2)",
                )
            )
    for node in schedule.nodes:
        if node not in topology:
            violations.append(
                DasViolation(
                    UNKNOWN_NODE,
                    (node,),
                    "scheduled node is not part of the topology",
                )
            )
    return violations


def _collision_violations(topology: Topology, schedule: Schedule) -> List[DasViolation]:
    """Check condition 4: no two senders in the same slot within 2 hops."""
    violations: List[DasViolation] = []
    for sigma in schedule.sender_sets():
        members = sorted(m for m in sigma if m in topology)
        for i, n in enumerate(members):
            cg = topology.collision_neighbourhood(n)
            for m in members[i + 1 :]:
                if m in cg:
                    violations.append(
                        DasViolation(
                            COLLISION,
                            (n, m),
                            f"both transmit in slot {schedule.slot_of(n)} but are "
                            "within each other's 2-hop neighbourhood (Def. 1)",
                        )
                    )
    return violations


def _has_path_avoiding(topology: Topology, start: NodeId, goal: NodeId, avoid: NodeId) -> bool:
    """Whether a path ``start ⇝ goal`` exists that never visits ``avoid``.

    Used by the weak DAS check: Def. 3 condition 3 requires a neighbour
    ``m`` such that ``n·m···S`` is a *path*, i.e. a simple walk to the
    sink that does not return through ``n`` itself.
    """
    if start == goal:
        return True
    if avoid in (start, goal) or start not in topology or goal not in topology:
        return False
    seen = {start, avoid}
    frontier = [start]
    while frontier:
        nxt = []
        for node in frontier:
            for other in topology.neighbours(node):
                if other == goal:
                    return True
                if other not in seen:
                    seen.add(other)
                    nxt.append(other)
        frontier = nxt
    return False


def check_strong_das(topology: Topology, schedule: Schedule) -> DasCheckResult:
    """Check Definition 2 (strong DAS) and report every violation.

    Condition 3 of Def. 2 requires, for every sender ``n``, that *every*
    neighbour ``m`` lying on a shortest path from ``n`` to the sink
    transmits in a strictly later slot (or is the sink itself).
    """
    result = DasCheckResult(strong=True)
    result.violations.extend(_coverage_violations(topology, schedule))
    if result.violations_of_kind(MISSING_SLOT):
        # Ordering/collision checks would raise on unscheduled nodes.
        return result

    sink = topology.sink
    for n in topology.nodes:
        if n == sink:
            continue
        n_slot = schedule.slot_of(n)
        for m in topology.shortest_path_children(n):
            if m == sink:
                continue
            if schedule.slot_of(m) <= n_slot:
                result.violations.append(
                    DasViolation(
                        ORDERING,
                        (n, m),
                        f"{m} lies on a shortest path {n}->{m}->...->sink but "
                        f"transmits in slot {schedule.slot_of(m)} <= {n_slot} "
                        "(Def. 2 condition 3)",
                    )
                )
    result.violations.extend(_collision_violations(topology, schedule))
    return result


def check_weak_das(topology: Topology, schedule: Schedule) -> DasCheckResult:
    """Check Definition 3 (weak DAS) and report every violation.

    Condition 3 of Def. 3 only requires *some* neighbour ``m`` with a
    path ``n·m···S`` (not through ``n``) to transmit later — i.e. each
    sender keeps at least one live forwarding direction.  This is the
    property Phase 3 refinement must preserve.
    """
    result = DasCheckResult(strong=False)
    result.violations.extend(_coverage_violations(topology, schedule))
    if result.violations_of_kind(MISSING_SLOT):
        return result

    sink = topology.sink
    for n in topology.nodes:
        if n == sink:
            continue
        n_slot = schedule.slot_of(n)
        has_outlet = False
        for m in topology.neighbours(n):
            if m == sink:
                has_outlet = True
                break
            if schedule.slot_of(m) > n_slot and _has_path_avoiding(
                topology, m, sink, avoid=n
            ):
                has_outlet = True
                break
        if not has_outlet:
            result.violations.append(
                DasViolation(
                    ORDERING,
                    (n,),
                    f"no neighbour of {n} with a sink path transmits after "
                    f"slot {n_slot} (Def. 3 condition 3)",
                )
            )
    result.violations.extend(_collision_violations(topology, schedule))
    return result


def is_strong_das(topology: Topology, schedule: Schedule) -> bool:
    """Boolean convenience wrapper around :func:`check_strong_das`."""
    return check_strong_das(topology, schedule).ok


def is_weak_das(topology: Topology, schedule: Schedule) -> bool:
    """Boolean convenience wrapper around :func:`check_weak_das`."""
    return check_weak_das(topology, schedule).ok
