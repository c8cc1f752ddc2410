"""The shared wireless medium.

A broadcast by node ``n`` is offered to every 1-hop neighbour of ``n``
(the unit-disk model of §III-A); each directed delivery independently
passes through the run's :class:`~repro.simulator.noise.NoiseModel`.
Eavesdroppers — attacker processes that are not part of the network —
can attach to the medium and overhear any transmission whose sender is
within range of their current location.

An optional collision window models concurrent-transmission loss: when
two frames would arrive at one receiver within ``collision_window``
seconds, both are destroyed.  TDMA operation is collision-free by
construction, so the window mainly matters for the dissemination phase
and is disabled by default (TinyOS disseminations are CSMA-spaced, which
our per-node jitter reproduces).

The transmission path itself (a broadcast's noise draws, overhearing
and its scheduled fan-out) runs only on the event-heap engine and lives
in :mod:`repro.simulator.engine`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, FrozenSet, List, Optional, Protocol, Tuple

from ..topology import NodeId, Topology
from . import trace as trace_kinds
from .noise import IdealNoise, NoiseModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .simulator import Simulator

#: One directed delivery of a broadcast: the receiver and its callback.
_Fanout = Tuple[Tuple[NodeId, Callable[[NodeId, Any, float], None]], ...]


class Eavesdropper(Protocol):
    """Anything that can overhear the medium (the attacker)."""

    @property
    def location(self) -> NodeId:
        """The node position the eavesdropper currently occupies."""
        ...

    def overhear(self, sender: NodeId, message: Any, time: float) -> None:
        """Called for every transmission audible at ``location``."""
        ...


class RadioMedium:
    """Broadcast delivery over a :class:`~repro.topology.Topology`.

    Parameters
    ----------
    simulator:
        The owning engine (provides the clock, RNG and event queue).
    topology:
        Connectivity; receivers of a broadcast are the sender's 1-hop
        neighbours.
    noise:
        Per-directed-delivery loss model.  Defaults to the ideal model.
    propagation_delay:
        Fixed sender→receiver latency in seconds.  Radio propagation at
        4.5 m is sub-microsecond; the default stands in for transmit and
        processing time and merely keeps deliveries strictly after sends.
    collision_window:
        When positive, two frames arriving at the same receiver within
        this many seconds destroy each other.
    """

    def __init__(
        self,
        simulator: "Simulator",
        topology: Topology,
        noise: Optional[NoiseModel] = None,
        propagation_delay: float = 1e-4,
        collision_window: float = 0.0,
    ) -> None:
        self._sim = simulator
        self._topology = topology
        self._noise = noise if noise is not None else IdealNoise()
        self._propagation_delay = propagation_delay
        self._collision_window = collision_window
        self._receivers: Dict[NodeId, Callable[[NodeId, Any, float], None]] = {}
        self._eavesdroppers: List[Eavesdropper] = []
        #: every node attached or detached, in order.  Its length is the
        #: attachment epoch; fan-out consumers (the operational fast
        #: lane) rebuild their tables when it moves, and only for the
        #: neighbours of the nodes toggled since.
        self._toggled: List[NodeId] = []
        #: receiver → time of last arrival, for the collision window.
        self._last_arrival: Dict[NodeId, float] = {}
        #: sender → (fan-out list, receiver-id tuple); a toggled node's
        #: neighbours' entries are dropped on attach/detach.  The id
        #: tuple feeds the noise block-draw.
        self._fanout_cache: Dict[NodeId, Tuple[_Fanout, Tuple[NodeId, ...]]] = {}
        #: sender → {sender} ∪ neighbours; topology is immutable, so
        #: entries never need invalidating.
        self._audible_cache: Dict[NodeId, FrozenSet[NodeId]] = {}
        trace = simulator.trace
        self._keep_send = trace.wants(trace_kinds.SEND)
        self._keep_deliver = trace.wants(trace_kinds.DELIVER)
        self._keep_drop = trace.wants(trace_kinds.DROP)
        self._keep_collide = trace.wants(trace_kinds.COLLIDE)
        self._keep_hear = trace.wants(trace_kinds.ATTACKER_HEAR)

    @property
    def topology(self) -> Topology:
        """The connectivity graph deliveries follow."""
        return self._topology

    @property
    def noise(self) -> NoiseModel:
        """The active noise model."""
        return self._noise

    @property
    def propagation_delay(self) -> float:
        """Fixed sender→receiver latency applied to every delivery."""
        return self._propagation_delay

    @property
    def collision_window(self) -> float:
        """The concurrent-arrival destruction window (0 = disabled)."""
        return self._collision_window

    @property
    def epoch(self) -> int:
        """Attachment-state version: changes whenever a node attaches to
        or detaches from the medium.  Consumers holding compiled fan-out
        tables (the operational fast lane) compare epochs to know when
        to rebuild."""
        return len(self._toggled)

    def toggled_since(self, epoch: int) -> Tuple[NodeId, ...]:
        """The nodes attached or detached since ``epoch``, in order.  A
        toggle changes only its neighbours' fan-outs."""
        return tuple(self._toggled[epoch:])

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach(
        self, node: NodeId, on_deliver: Callable[[NodeId, Any, float], None]
    ) -> None:
        """Register the delivery callback for ``node``'s channel."""
        self._receivers[node] = on_deliver
        self._toggle(node)

    def detach(self, node: NodeId) -> None:
        """Remove ``node`` from the medium (e.g. node failure injection)."""
        self._receivers.pop(node, None)
        self._toggle(node)

    def _toggle(self, node: NodeId) -> None:
        """Record a toggle and drop the fan-outs it changed: only those
        of ``node``'s neighbours list it.  Attaching a run's processes
        finds the cache empty and skips the walk."""
        cache = self._fanout_cache
        if cache:
            for neighbour in self._topology.neighbours(node):
                cache.pop(neighbour, None)
        self._toggled.append(node)

    def attach_eavesdropper(self, eavesdropper: Eavesdropper) -> None:
        """Let ``eavesdropper`` overhear transmissions near its location."""
        self._eavesdroppers.append(eavesdropper)

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def _fanout_of(self, sender: NodeId) -> Tuple[_Fanout, Tuple[NodeId, ...]]:
        cached = self._fanout_cache.get(sender)
        if cached is None:
            receivers = self._receivers
            fanout = tuple(
                (neighbour, receivers[neighbour])
                for neighbour in self._topology.neighbours(sender)
                if neighbour in receivers
            )
            cached = (fanout, tuple(pair[0] for pair in fanout))
            self._fanout_cache[sender] = cached
        return cached

    def _audible_of(self, sender: NodeId) -> FrozenSet[NodeId]:
        audible = self._audible_cache.get(sender)
        if audible is None:
            audible = frozenset(self._topology.neighbours(sender)) | {sender}
            self._audible_cache[sender] = audible
        return audible

    def fanout(self, sender: NodeId) -> Tuple[_Fanout, Tuple[NodeId, ...]]:
        """The current ``(fan-out, receiver ids)`` of ``sender``.

        The fan-out pairs each attached neighbour with its delivery
        callback; the id tuple is exactly what :meth:`broadcast` feeds
        :meth:`NoiseModel.delivers_block`.  Valid until :attr:`epoch`
        moves (a node attached or detached)."""
        return self._fanout_of(sender)

    def audible_set(self, sender: NodeId) -> FrozenSet[NodeId]:
        """``{sender} ∪ neighbours(sender)``: where ``sender`` is audible.
        Topology-derived and immutable for the run."""
        return self._audible_of(sender)

    def broadcast(self, sender: NodeId, message: Any) -> None:
        """Transmit ``message`` from ``sender`` to all nodes in range
        (see :func:`repro.simulator.engine.broadcast`)."""
        from .engine import broadcast

        broadcast(self, sender, message)

    def close(self) -> None:
        """Forget the engine and every attached receiver (see
        :meth:`Simulator.close`)."""
        self._receivers.clear()
        self._fanout_cache.clear()
        self._eavesdroppers = []
        self._sim = None

    def reset(self) -> None:
        """Clear per-run medium state (noise chains, collision clocks)."""
        self._noise.reset()
        self._last_arrival.clear()
