"""TDMA MAC driver.

:class:`TdmaDriver` turns the frame arithmetic of
:class:`~repro.mac.frame.TdmaFrame` into engine events: each period it
fires a period-start hook on every registered client and a slot hook at
the client's assigned slot.  Protocol processes implement
:class:`TdmaClient` and never deal with absolute timestamps themselves.

This mirrors how a TDMA MAC sits under the application in TinyOS: the
MAC owns the timing, the application owns the payloads.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Protocol

from ..errors import SimulationError
from ..simulator import PERIOD_START
from ..topology import NodeId
from .frame import TdmaFrame

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simulator import Simulator


class TdmaClient(Protocol):
    """A process driven by the TDMA MAC."""

    @property
    def node(self) -> NodeId:
        """The node the client runs on."""
        ...

    def on_period_start(self, period: int, time: float) -> None:
        """Called at the start of every period."""
        ...

    def on_slot(self, period: int, slot: int, time: float) -> None:
        """Called at the start of the client's own slot."""
        ...


class TdmaDriver:
    """Fires period and slot events for a set of clients.

    The driver is started once with :meth:`start` and then self-schedules
    one period at a time — scheduling only the upcoming period keeps the
    event queue small on long runs.
    """

    def __init__(self, simulator: "Simulator", frame: TdmaFrame) -> None:
        self._sim = simulator
        self._frame = frame
        self._clients: Dict[NodeId, TdmaClient] = {}
        self._slots: Dict[NodeId, int] = {}
        self._running = False
        self._stop_after: Optional[int] = None
        self._current_period = 0

    @property
    def current_period(self) -> int:
        """Index of the period currently being executed."""
        return self._current_period

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, client: TdmaClient, slot: Optional[int]) -> None:
        """Add a client; ``slot`` may be ``None`` for listen-only nodes."""
        if client.node in self._clients:
            raise SimulationError(
                f"a TDMA client is already registered at node {client.node}"
            )
        if slot is not None and not self._frame.fits(slot):
            raise SimulationError(
                f"slot {slot} does not fit a frame of {self._frame.num_slots} slots"
            )
        self._clients[client.node] = client
        if slot is not None:
            self._slots[client.node] = slot

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def start(self, stop_after: Optional[int] = None) -> None:
        """Begin firing events from period 0.

        ``stop_after`` bounds how many periods run (``None`` = until the
        simulation's own horizon ends the run).
        """
        if self._running:
            raise SimulationError("the TDMA driver is already running")
        self._running = True
        self._stop_after = stop_after
        self._sim.schedule_at(self._frame.period_start(0), self._begin_period, (0,))

    def _begin_period(self, period: int) -> None:
        self._current_period = period
        now = self._sim.now
        self._sim.trace.record(now, PERIOD_START, period=period)
        for node in sorted(self._clients):
            self._clients[node].on_period_start(period, now)
        for node, slot in sorted(self._slots.items()):
            self._sim.schedule_at(
                self._frame.slot_start(period, slot),
                self._fire_slot,
                (node, period, slot),
            )
        if self._stop_after is None or period + 1 < self._stop_after:
            self._sim.schedule_at(
                self._frame.period_start(period + 1),
                self._begin_period,
                (period + 1,),
            )

    def _fire_slot(self, node: NodeId, period: int, slot: int) -> None:
        self._clients[node].on_slot(period, slot, self._sim.now)
