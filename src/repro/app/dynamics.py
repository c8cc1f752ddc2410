"""Workload dynamics for the operational phase.

The paper's evaluation runs one static source against a fixed network.
The machinery it builds — the parameterised attacker, the DAS/SLP
schedules, the safety period — is more general than that, and the
scenario subsystem exercises the generality.  This module holds the
*runtime* vocabulary scenarios lower onto:

* :class:`SourcePlan` — which nodes hold the asset: one node (the
  paper), several simultaneously, or a pool the asset rotates through
  (a mobile source).
* :class:`Perturbation` and its concrete forms :class:`NodeDeath`,
  :class:`NodeSleep` and :class:`DutyCycle` — mid-run changes applied
  at TDMA period boundaries: crashed nodes, one-shot sleeps and
  recurring sleep schedules.

Everything here is a frozen, picklable value object: scenario sweeps
ship these to worker processes, and the determinism contract of the
parallel engine requires that a worker sees exactly what the parent
built.  All timing is expressed in whole TDMA periods — perturbations
and rotations apply at period boundaries, before any event of the
period fires, so outcomes never depend on sub-period event ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Set, Tuple

from ..errors import invalid_field
from ..topology import NodeId

#: One lowered perturbation step: (period, action, affected nodes).
#: Actions: ``"sleep"`` and ``"wake"`` pair up; ``"die"`` is permanent —
#: the harness never wakes a dead node, even if an overlapping sleep
#: schedule has a wake step queued for it.
PerturbationStep = Tuple[int, str, Tuple[NodeId, ...]]

SLEEP = "sleep"
WAKE = "wake"
DIE = "die"


def _normalised_nodes(owner: str, nodes: Sequence[NodeId]) -> Tuple[NodeId, ...]:
    """Validate and canonicalise a node tuple (sorted, non-empty, unique)."""
    as_tuple = tuple(nodes)
    if not as_tuple:
        raise invalid_field(owner, "nodes", as_tuple, "needs at least one node")
    if len(set(as_tuple)) != len(as_tuple):
        raise invalid_field(owner, "nodes", as_tuple, "contains duplicate nodes")
    return tuple(sorted(as_tuple))


@dataclass(frozen=True)
class SourcePlan:
    """Which nodes hold the asset, and how that changes over time.

    Attributes
    ----------
    nodes:
        The source pool.  With one node this is exactly the paper's
        static source.
    rotation_period:
        ``None`` (default) makes every pool node a *simultaneous*
        source for the whole run: the attacker captures by occupying
        any of them.  A positive value makes the asset *mobile*: only
        one pool node is active at a time, and the active source
        advances through ``nodes`` (in the given order, wrapping) every
        ``rotation_period`` TDMA periods.  If the asset rotates onto
        the attacker's current position, that is a capture too.
    """

    nodes: Tuple[NodeId, ...]
    rotation_period: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if not self.nodes:
            raise invalid_field(
                "SourcePlan", "nodes", self.nodes, "needs at least one source node"
            )
        if len(set(self.nodes)) != len(self.nodes):
            raise invalid_field(
                "SourcePlan", "nodes", self.nodes, "contains duplicate source nodes"
            )
        if self.rotation_period is not None:
            if self.rotation_period < 1:
                raise invalid_field(
                    "SourcePlan",
                    "rotation_period",
                    self.rotation_period,
                    "must be at least one period",
                )
            if len(self.nodes) < 2:
                raise invalid_field(
                    "SourcePlan",
                    "nodes",
                    self.nodes,
                    "a rotating (mobile) source needs at least two pool nodes",
                )

    @property
    def primary(self) -> NodeId:
        """The first pool node — the source SLP schedule building protects."""
        return self.nodes[0]

    def active_at(self, period: int) -> Tuple[NodeId, ...]:
        """The nodes holding the asset during TDMA period ``period``."""
        if self.rotation_period is None:
            return self.nodes
        index = (period // self.rotation_period) % len(self.nodes)
        return (self.nodes[index],)

    @staticmethod
    def single(node: NodeId) -> "SourcePlan":
        """The paper's workload: one static source."""
        return SourcePlan(nodes=(node,))


class SourceTracker:
    """Mutable runtime view of a :class:`SourcePlan`.

    The operational harness advances the tracker at each period
    boundary; the attacker's capture test and the per-source metrics
    read the currently active set from it.
    """

    def __init__(self, plan: SourcePlan) -> None:
        self._plan = plan
        self._active = frozenset(plan.active_at(0))

    @property
    def plan(self) -> SourcePlan:
        """The declarative plan being tracked."""
        return self._plan

    @property
    def active(self) -> frozenset:
        """The nodes currently holding the asset."""
        return self._active

    def advance(self, period: int) -> frozenset:
        """Move to ``period`` and return the newly active source set."""
        self._active = frozenset(self._plan.active_at(period))
        return self._active

    def is_source(self, node: NodeId) -> bool:
        """Whether ``node`` currently holds the asset."""
        return node in self._active


class Perturbation:
    """A scheduled mid-run change to the network.

    Concrete perturbations lower themselves to a sequence of
    :data:`PerturbationStep` values via :meth:`steps`; the operational
    harness applies each step at the corresponding period boundary
    (radio detach + transmit mute for sleep, the reverse for wake).
    """

    #: Sorted tuple of affected nodes (set by every concrete subclass).
    nodes: Tuple[NodeId, ...]

    def steps(self, periods: int) -> Iterator[PerturbationStep]:
        """Yield ``(period, action, nodes)`` steps within ``periods``."""
        raise NotImplementedError


@dataclass(frozen=True)
class NodeDeath(Perturbation):
    """Nodes crash at the start of ``period`` and never come back."""

    period: int
    nodes: Tuple[NodeId, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", _normalised_nodes("NodeDeath", self.nodes))
        if self.period < 0:
            raise invalid_field(
                "NodeDeath", "period", self.period, "cannot be negative"
            )

    def steps(self, periods: int) -> Iterator[PerturbationStep]:
        if self.period < periods:
            yield (self.period, DIE, self.nodes)


@dataclass(frozen=True)
class NodeSleep(Perturbation):
    """Nodes sleep from ``period`` until ``wake_period`` (one-shot)."""

    period: int
    wake_period: int
    nodes: Tuple[NodeId, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", _normalised_nodes("NodeSleep", self.nodes))
        if self.period < 0:
            raise invalid_field(
                "NodeSleep", "period", self.period, "cannot be negative"
            )
        if self.wake_period <= self.period:
            raise invalid_field(
                "NodeSleep",
                "wake_period",
                self.wake_period,
                f"must come after the sleep period {self.period}",
            )

    def steps(self, periods: int) -> Iterator[PerturbationStep]:
        if self.period < periods:
            yield (self.period, SLEEP, self.nodes)
            if self.wake_period < periods:
                yield (self.wake_period, WAKE, self.nodes)


@dataclass(frozen=True)
class DutyCycle(Perturbation):
    """A recurring sleep schedule: every ``cycle_length`` periods the
    nodes sleep for the first ``sleep_for`` of them.

    Attributes
    ----------
    nodes:
        The duty-cycled nodes.
    cycle_length:
        Length of one on/off cycle in periods.
    sleep_for:
        How many periods of each cycle are spent asleep (strictly less
        than ``cycle_length`` so every cycle contains awake periods).
    offset:
        Period at which the first cycle starts.
    """

    nodes: Tuple[NodeId, ...]
    cycle_length: int
    sleep_for: int
    offset: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", _normalised_nodes("DutyCycle", self.nodes))
        if self.cycle_length < 2:
            raise invalid_field(
                "DutyCycle",
                "cycle_length",
                self.cycle_length,
                "must span at least two periods",
            )
        if not 1 <= self.sleep_for < self.cycle_length:
            raise invalid_field(
                "DutyCycle",
                "sleep_for",
                self.sleep_for,
                f"must lie in [1, cycle_length={self.cycle_length})",
            )
        if self.offset < 0:
            raise invalid_field(
                "DutyCycle", "offset", self.offset, "cannot be negative"
            )

    def steps(self, periods: int) -> Iterator[PerturbationStep]:
        start = self.offset
        while start < periods:
            yield (start, SLEEP, self.nodes)
            wake = start + self.sleep_for
            if wake < periods:
                yield (wake, WAKE, self.nodes)
            start += self.cycle_length


def lower_perturbations(
    perturbations: Sequence[Perturbation], periods: int
) -> Tuple[PerturbationStep, ...]:
    """Flatten perturbations into one period-ordered step sequence.

    Steps are ordered by period, then by declaration order (stable
    sort), so overlapping perturbations resolve identically on every
    run — the property the serial/parallel identity contract needs.
    """
    steps = []
    for index, perturbation in enumerate(perturbations):
        for period, action, nodes in perturbation.steps(periods):
            steps.append((period, index, action, nodes))
    steps.sort(key=lambda s: (s[0], s[1]))
    return tuple((period, action, nodes) for period, _, action, nodes in steps)


def apply_step(
    action: str,
    nodes: Tuple[NodeId, ...],
    dead: Set[NodeId],
    toggle: Callable[[NodeId, bool], None],
) -> None:
    """Apply one lowered step through ``toggle(node, awake)``.

    The step semantics both operational engines share: ``sleep`` and
    ``die`` take a node off the network (``die`` also records it in
    ``dead``), and ``wake`` brings it back unless it is dead — death is
    permanent, so a wake from an overlapping sleep schedule never
    resurrects a crashed node.  ``toggle`` is the engine's own state
    change (radio attachment plus the node's transmit mute).
    """
    for node in nodes:
        if action == WAKE:
            if node not in dead:
                toggle(node, True)
            continue
        if action == DIE:
            dead.add(node)
        toggle(node, False)
