"""The runtime distributed eavesdropper.

:class:`EavesdropperAgent` plugs the Figure 1 state machine into the
radio medium: it overhears every transmission audible at its current
location, buffers up to ``R`` per decision, moves according to ``D``
(at most ``M`` times per period) and reports a capture the moment it
occupies the source node.  It is "distributed" in the paper's sense —
present at different network positions over time — while only ever
listening, never transmitting.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..simulator import ATTACKER_MOVE, CAPTURE, Simulator
from ..topology import NodeId
from .decision import HeardMessage
from .model import AttackerSpec, AttackerState


class EavesdropperAgent:
    """A mobile eavesdropper attached to a :class:`~repro.simulator.radio.RadioMedium`.

    Parameters
    ----------
    simulator:
        The engine providing the clock, RNG and trace.
    spec:
        The ``(R, H, M, s0, D)`` parameters.
    start:
        ``s0`` — the node position the attacker begins at (the sink in
        the paper's evaluation: attackers lurk where traffic converges).
    source:
        The node whose occupation constitutes a capture.
    slot_lookup:
        Maps a sender to its TDMA slot, letting decision functions
        reason about slots (the runtime equivalent of Algorithm 1's
        ``1HopNsWithRLowestSlots``).
    on_capture:
        Optional callback invoked once at capture time.
    capture_test:
        Optional predicate replacing the ``location == source`` capture
        check.  Scenario workloads use it for multiple simultaneous
        sources and mobile (rotating) sources, where the capture target
        is a set that may change between periods.
    """

    def __init__(
        self,
        simulator: Simulator,
        spec: AttackerSpec,
        start: NodeId,
        source: NodeId,
        slot_lookup: Callable[[NodeId], int],
        on_capture: Optional[Callable[[float], None]] = None,
        capture_test: Optional[Callable[[NodeId], bool]] = None,
    ) -> None:
        self._sim = simulator
        self._state = AttackerState(spec, start)
        self._source = source
        self._slot_lookup = slot_lookup
        self._on_capture = on_capture
        self._capture_test = capture_test
        self._captured_at: Optional[float] = None
        self._capture_period: Optional[int] = None
        self._captured_source: Optional[NodeId] = None
        self._current_period = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def location(self) -> NodeId:
        """Current position (the :class:`Eavesdropper` protocol)."""
        return self._state.location

    @property
    def state(self) -> AttackerState:
        """The underlying Figure 1 state machine."""
        return self._state

    @property
    def captured(self) -> bool:
        """Whether the attacker has reached the source."""
        return self._captured_at is not None

    @property
    def capture_time(self) -> Optional[float]:
        """Simulated time of capture, if any."""
        return self._captured_at

    @property
    def capture_period(self) -> Optional[int]:
        """TDMA period index of capture, if any."""
        return self._capture_period

    @property
    def captured_source(self) -> Optional[NodeId]:
        """The source node the attacker captured, if any."""
        return self._captured_source

    @property
    def path(self) -> tuple:
        """Every node position the attacker has occupied, in order."""
        return tuple(self._state.path)

    # ------------------------------------------------------------------
    # Period driving (wired to the TDMA driver by the runtime harness)
    # ------------------------------------------------------------------
    def on_period_start(self, period: int, time: float) -> None:
        """Figure 1's ``NextP`` action (the attacker knows the period
        length, §VI-C)."""
        self._current_period = period
        self._state.next_period()

    # ------------------------------------------------------------------
    # Radio-facing interface
    # ------------------------------------------------------------------
    def overhear(self, sender: NodeId, message: Any, time: float) -> None:
        """``ARcv``: buffer the capture; ``Decide`` fires when R are held."""
        if self.captured:
            return
        try:
            slot = self._slot_lookup(sender)
        except Exception:
            slot = 0
        ready = self._state.hear(HeardMessage(sender=sender, slot=slot, time=time))
        if ready:
            self._decide(time)

    def _decide(self, time: float) -> None:
        moved_to = self._state.decide(self._sim.rng)
        if moved_to is None:
            return
        self._sim.trace.record(
            time,
            ATTACKER_MOVE,
            location=moved_to,
            period=self._current_period,
        )
        if self._is_capture(moved_to):
            self.register_capture(moved_to, time)

    def _is_capture(self, location: NodeId) -> bool:
        if self._capture_test is not None:
            return self._capture_test(location)
        return location == self._source

    def register_capture(self, location: NodeId, time: float) -> None:
        """Record that the attacker holds a source at ``location``.

        Called internally when a move lands on a source, and by the
        scenario harness when a *mobile* source rotates onto the
        attacker's current position (the asset walking into the
        attacker is a capture too).  Idempotent after the first call.
        """
        if self.captured:
            return
        self._captured_at = time
        self._capture_period = self._current_period
        self._captured_source = location
        self._sim.trace.record(
            time, CAPTURE, location=location, period=self._current_period
        )
        if self._on_capture is not None:
            self._on_capture(time)
