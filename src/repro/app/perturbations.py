"""Mid-run perturbations: crashed nodes, one-shot sleeps and recurring
sleep schedules.

:class:`Perturbation` and its concrete forms :class:`NodeDeath`,
:class:`NodeSleep` and :class:`DutyCycle` are frozen, picklable value
records (scenario sweeps ship them to worker processes).  A run lowers
them to :data:`PerturbationStep` values (:func:`lower_perturbations`),
which both operational engines apply at TDMA period boundaries, before
any event of the period fires, through :func:`apply_step`.  Only runs
that declare perturbations load this module.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator, Sequence, Set, Tuple

from ..errors import invalid_field
from ..records import Record
from ..topology import NodeId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..topology import Topology
    from .dynamics import SourcePlan

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


class NodeDeath(Perturbation, Record):
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


class NodeSleep(Perturbation, Record):
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


class DutyCycle(Perturbation, Record):
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


def validate_perturbations(
    topology: "Topology",
    perturbations: Sequence[Perturbation],
    plan: "SourcePlan",
) -> None:
    """Reject perturbations of nodes outside ``topology`` and of the
    sink or a source-pool node (they anchor the privacy game)."""
    protected = set(plan.nodes) | {topology.sink}
    for perturbation in perturbations:
        for node in perturbation.nodes:
            if node not in topology:
                raise invalid_field(
                    type(perturbation).__name__,
                    "nodes",
                    node,
                    f"is not part of topology {topology.name!r}",
                )
            if node in protected:
                role = "sink" if node == topology.sink else "source"
                raise invalid_field(
                    type(perturbation).__name__,
                    "nodes",
                    node,
                    f"cannot perturb the {role} (it anchors the privacy game)",
                )
