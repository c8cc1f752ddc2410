"""The convergecast application running on top of the TDMA MAC.

Each sensor node produces one reading per period and broadcasts one
:class:`~repro.app.messages.AggregateMessage` in its slot, folding in
the aggregates received from its children earlier in the same period.
Because a (weak) DAS schedule fires children strictly before parents,
the sink collects every reachable node's reading by the end of each
period — the property the aggregation-completeness metric checks.

The sink never transmits (Def. 2 excludes it from every sender set);
it only accumulates and records per-period completeness.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Set

from ..simulator import Process
from ..topology import NodeId
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

    @property
    def asleep(self) -> bool:
        """Whether the node is currently muted by a perturbation."""
        return self._asleep

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

    def adopt_state(
        self, period: int, pending: Set[NodeId], sent_delta: int
    ) -> None:
        """Install externally-evolved per-period state (fast-lane sync).

        The operational fast lane runs the transmit/aggregate chain on
        flat tables and hands each process its final state back here, so
        every post-run observation (``finish``, ``messages_sent``,
        pending origins) reads exactly what the legacy engine would have
        left behind.
        """
        self._current_period = period
        self._pending = pending
        self.messages_sent += sent_delta

    def finish(self, period: int) -> None:
        """Flush the final period's sink accounting at run end."""
        if self._is_sink and self._current_period >= 0:
            self.collected_by_period[self._current_period] = len(self._pending)
