"""The convergecast application running on top of the TDMA MAC.

Each sensor node produces one reading per period and broadcasts one
:class:`~repro.app.messages.AggregateMessage` in its slot, folding in
the aggregates received from its children earlier in the same period.
Because a (weak) DAS schedule fires children strictly before parents,
the sink collects every reachable node's reading by the end of each
period — the property the aggregation-completeness metric checks.

The sink never transmits (Def. 2 excludes it from every sender set);
it only accumulates and records per-period completeness.

These process objects are the **legacy** operational engine
(:func:`run_legacy_engine`): the event-heap oracle the fast kernel is
tested against, run only when asked for.  The fast kernel keeps node
state in flat arrays, so a fast run loads neither this module nor the
heap, process and TDMA driver modules it imports.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Set, Tuple

from ..attacker import EavesdropperAgent
from ..core import Schedule
from ..mac import TdmaFrame
from ..mac.tdma import TdmaDriver
from ..simulator import Process, Simulator
from ..topology import NodeId
from .dynamics import SourcePlan, SourceTracker
from .perturbations import PerturbationStep, apply_step
from .messages import AggregateMessage


class ConvergecastNodeProcess(Process):
    """One node's data plane: aggregate children, transmit in-slot."""

    def __init__(
        self,
        node: NodeId,
        slot: Optional[int],
        parent: Optional[NodeId],
        is_sink: bool,
        is_source: bool,
        children: Optional[Set[NodeId]] = None,
    ) -> None:
        super().__init__(node)
        self._slot = slot
        self._parent = parent
        self._is_sink = is_sink
        self._is_source = is_source
        self._children: Set[NodeId] = set(children) if children else set()
        self._asleep = False
        self._current_period = -1
        #: origins aggregated so far in the current period.
        self._pending: Set[NodeId] = set()
        #: per-period count of origins collected (sink only).
        self.collected_by_period: Dict[int, int] = {}
        self.messages_sent = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def is_sink(self) -> bool:
        """Whether this node is the data collector."""
        return self._is_sink

    @property
    def is_source(self) -> bool:
        """Whether this node is the asset-detecting source."""
        return self._is_source

    @property
    def slot(self) -> Optional[int]:
        """The TDMA slot this node transmits in (``None`` for the sink)."""
        return self._slot

    # ------------------------------------------------------------------
    # Perturbation hooks (driven by the scenario harness)
    # ------------------------------------------------------------------
    def sleep(self) -> None:
        """Mute the node: no transmissions until :meth:`wake`.

        The harness pairs this with detaching the node's radio, so a
        sleeping (or dead) node neither sends nor hears — it vanishes
        from the network until woken.
        """
        self._asleep = True

    def wake(self) -> None:
        """Resume transmitting from the next slot onward."""
        self._asleep = False

    # ------------------------------------------------------------------
    # TDMA client hooks (driven by the TdmaDriver)
    # ------------------------------------------------------------------
    def on_period_start(self, period: int, time: float) -> None:
        """Fresh period: record last period's take, sense a new reading."""
        if self._is_sink and self._current_period >= 0:
            self.collected_by_period[self._current_period] = len(self._pending)
        self._current_period = period
        self._pending = set() if self._is_sink else {self.node}

    def on_slot(self, period: int, slot: int, time: float) -> None:
        """Broadcast this period's aggregate (every node, every period;
        the sink and nodes a perturbation muted stay silent)."""
        if self._is_sink or self._asleep:
            return
        message = AggregateMessage(
            sender=self.node,
            period=period,
            slot=slot,
            origins=frozenset(self._pending),
        )
        self.messages_sent += 1
        self.broadcast(message)

    # ------------------------------------------------------------------
    # Radio
    # ------------------------------------------------------------------
    def on_receive(self, sender: NodeId, message: Any, time: float) -> None:
        if not isinstance(message, AggregateMessage):
            return
        if message.period != self._current_period:
            return  # stale frame from a previous period
        # Aggregation follows the tree: a node folds in only messages
        # from nodes that chose it as parent (the sink likewise).
        if self._is_sink or self._should_aggregate(sender):
            self._pending.update(message.origins)

    def _should_aggregate(self, sender: NodeId) -> bool:
        # A broadcast medium delivers everything; the aggregation layer
        # accepts only child traffic.  Children were learned during
        # Phase 1 (nodes announce their parent in DISSEM messages) and
        # are passed in by the runtime harness from the schedule.
        return sender in self._children

    def finish(self, period: int) -> None:
        """Flush the final period's sink accounting at run end."""
        if self._is_sink and self._current_period >= 0:
            self.collected_by_period[self._current_period] = len(self._pending)


class _AttackerTdmaAdapter:
    """Adapts an :class:`EavesdropperAgent` to the TDMA client protocol
    so the driver delivers period boundaries (Figure 1's ``NextP``)."""

    def __init__(self, node: NodeId, agent: EavesdropperAgent) -> None:
        self._node = node
        self._agent = agent

    @property
    def node(self) -> NodeId:
        return self._node

    def on_period_start(self, period: int, time: float) -> None:
        self._agent.on_period_start(period, time)

    def on_slot(self, period: int, slot: int, time: float) -> None:  # pragma: no cover
        pass  # the attacker never transmits


class _SourcePlanClient:
    """TDMA client advancing the :class:`SourceTracker` each period.

    Registered *after* the attacker adapter (larger node key) so the
    attacker's ``NextP`` has already run when the tracker advances; a
    rotation that lands the asset on the attacker's current position is
    then registered as a capture under the new period index.
    """

    def __init__(
        self, node: NodeId, tracker: SourceTracker, agent: EavesdropperAgent
    ) -> None:
        self._node = node
        self._tracker = tracker
        self._agent = agent

    @property
    def node(self) -> NodeId:
        return self._node

    def on_period_start(self, period: int, time: float) -> None:
        active = self._tracker.advance(period)
        if not self._agent.captured and self._agent.location in active:
            self._agent.register_capture(self._agent.location, time)

    def on_slot(self, period: int, slot: int, time: float) -> None:  # pragma: no cover
        pass  # the plan client never transmits


def run_legacy_engine(
    sim: Simulator,
    frame: TdmaFrame,
    periods_budget: int,
    schedule: Schedule,
    plan: SourcePlan,
    agent: EavesdropperAgent,
    tracker: SourceTracker,
    steps: Sequence[PerturbationStep],
) -> Tuple[int, Dict[int, int]]:
    """The legacy engine: per-node processes driven by the event heap
    through a :class:`~repro.mac.TdmaDriver`.  Returns the last period
    begun and the sink's per-period count of collected readings.

    Only this engine (the oracle) builds the heap,
    the driver and the process objects, so this module and the ones it
    imports load only when a run takes it.
    """
    topology = sim.topology
    pool_set = frozenset(plan.nodes)
    processes: Dict[NodeId, ConvergecastNodeProcess] = {}
    for node in topology.nodes:
        is_sink = node == topology.sink
        proc = ConvergecastNodeProcess(
            node,
            slot=None if is_sink else schedule.slot_of(node),
            parent=schedule.parent_of(node),
            is_sink=is_sink,
            is_source=node in pool_set,
            children=set(schedule.children_of(node)),
        )
        processes[node] = proc
        sim.register_process(proc)

    # Perturbation steps fire at the period boundary *before* the
    # period's own processing: they are queued first, and the event
    # queue breaks timestamp ties by insertion order.
    dead: Set[NodeId] = set()
    radio = sim.radio

    def toggle(node: NodeId, awake: bool) -> None:
        proc = processes[node]
        if awake:
            radio.attach(node, proc.deliver)
            proc.wake()
        else:
            radio.detach(node)
            proc.sleep()

    for period, action, nodes in steps:
        sim.schedule_at(
            frame.period_start(period), apply_step, (action, nodes, dead, toggle)
        )

    driver = TdmaDriver(sim, frame)
    for node, proc in processes.items():
        driver.register(proc, proc.slot)
    # The adapter and the source-plan client need their own client
    # keys; negative identifiers never collide with a sensor node.
    # The adapter sorts first so the attacker's NextP precedes the
    # tracker advance (see _SourcePlanClient).
    driver.register(_AttackerTdmaAdapter(-2, agent), None)
    driver.register(_SourcePlanClient(-1, tracker, agent), None)
    driver.start(stop_after=periods_budget)
    sim.run(until=periods_budget * frame.period_length + 1e-9)
    current_period = driver.current_period
    sink_proc = processes[topology.sink]
    sink_proc.finish(current_period)
    return current_period, sink_proc.collected_by_period
