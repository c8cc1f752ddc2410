"""Protocol process base class.

The paper writes protocols in guarded command notation: actions fire on
timeouts (``timeout(timer)``) or message arrival (``rcv``).  A
:class:`Process` offers the same two triggers in event-driven form:

* :meth:`set_timer` / :meth:`cancel_timer` — named timers whose expiry
  invokes :meth:`on_timer`;
* the radio enqueues arrivals into the process's FIFO :class:`Channel`
  and then invokes :meth:`on_receive` per dequeued message.

Subclasses implement the protocol logic; they never touch the event
queue directly, which keeps them portable across engines.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional

from ..errors import SimulationError
from ..topology import NodeId
from .channel import Channel, Delivery
from .event import EventHandle

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .simulator import Simulator


class Process:
    """A node-resident protocol process with timers and a FIFO channel.

    ``__slots__`` keeps per-node overhead small on large grids;
    subclasses may declare their own slots or fall back to a ``__dict__``
    for protocol state.
    """

    __slots__ = ("_node", "_sim", "_channel", "_timers", "_draining")

    def __init__(self, node: NodeId) -> None:
        self._node = node
        self._sim: Optional["Simulator"] = None
        self._channel = Channel(node)
        self._timers: Dict[str, EventHandle] = {}
        self._draining = False

    # ------------------------------------------------------------------
    # Identity and wiring
    # ------------------------------------------------------------------
    @property
    def node(self) -> NodeId:
        """The node this process runs on."""
        return self._node

    @property
    def channel(self) -> Channel:
        """The FIFO queue of incoming messages (the paper's ``ch``)."""
        return self._channel

    @property
    def sim(self) -> "Simulator":
        """The engine this process is registered with."""
        if self._sim is None:
            raise SimulationError(
                f"process at node {self._node} is not registered with a simulator"
            )
        return self._sim

    def bind(self, simulator: "Simulator") -> None:
        """Attach the process to an engine.  Called by ``register_process``."""
        if self._sim is not None:
            raise SimulationError(
                f"process at node {self._node} is already registered"
            )
        self._sim = simulator

    def unbind(self) -> None:
        """Detach from the engine, dropping pending timers and arrivals.

        Called by :meth:`Simulator.close`; the protocol state stays
        readable.
        """
        self._sim = None
        self._timers.clear()
        self._channel.clear()

    # ------------------------------------------------------------------
    # Lifecycle hooks (subclass API)
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Called once when the simulation starts.  Override as needed."""

    def on_receive(self, sender: NodeId, message: Any, time: float) -> None:
        """Called per message dequeued from the channel.  Override."""

    def on_timer(self, name: str, time: float) -> None:
        """Called when the named timer expires.  Override."""

    # ------------------------------------------------------------------
    # Actions available to subclasses
    # ------------------------------------------------------------------
    def broadcast(self, message: Any) -> None:
        """Transmit ``message`` on the shared medium (the ``BCAST`` action)."""
        self.sim.radio.broadcast(self._node, message)

    def set_timer(self, name: str, delay: float) -> None:
        """(Re)arm a named timer ``delay`` seconds from now.

        Mirrors the paper's ``set(timer, value)``: re-arming an already
        pending timer replaces it.
        """
        if delay < 0:
            raise SimulationError(f"timer {name!r} delay must be non-negative")
        self.cancel_timer(name)
        self._timers[name] = self.sim.schedule_after(
            delay, self._fire_timer, (name,)
        )

    def cancel_timer(self, name: str) -> None:
        """Cancel a pending timer.  No-op when the timer is not armed."""
        handle = self._timers.pop(name, None)
        if handle is not None:
            handle.cancel()

    # ------------------------------------------------------------------
    # Engine-facing plumbing
    # ------------------------------------------------------------------
    def _fire_timer(self, name: str) -> None:
        self._timers.pop(name, None)
        self.on_timer(name, self.sim.now)

    def deliver(self, sender: NodeId, message: Any, time: float) -> None:
        """Radio delivery entry point: enqueue then drain the channel.

        Arrivals pass through the FIFO channel so that ``on_receive``
        observes them strictly in arrival order even if a handler
        triggers further deliveries at the same timestamp.  The common
        case — no re-entrant delivery — skips the queue round-trip: the
        message is handed to ``on_receive`` directly, and only arrivals
        landing *while a handler runs* are enqueued (the outer drain
        loop picks them up in order, preserving the FIFO contract).
        """
        if self._draining:
            self._channel.enqueue(Delivery(sender=sender, message=message, time=time))
            return
        self._draining = True
        try:
            self.on_receive(sender, message, time)
            channel = self._channel
            while channel:
                delivery = channel.dequeue()
                self.on_receive(delivery.sender, delivery.message, delivery.time)
        finally:
            self._draining = False
