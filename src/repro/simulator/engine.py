"""The event-heap engine: process registration, the event loop and the
radio's transmission path.

Only runs that drive protocol processes execute this module (the
legacy operational kernel, the legacy setup engine and the tests of
the substrate): the flat kernels read the medium's fan-outs and draw
noise themselves.  :class:`~repro.simulator.Simulator` and
:class:`~repro.simulator.radio.RadioMedium` keep the public methods
(``register_process``, ``step``, ``run``, ``broadcast``), which import
it on first call; the functions work on the engine's and the medium's
own state.

Hot-path notes.  Broadcast delivery dominates sweep runtime, so the
medium (a) caches the per-sender fan-out list (attached neighbours and
their callbacks, plus the receiver-id tuple fed to the noise
block-draw) and the per-sender audible set instead of rebuilding them
each transmission, (b) schedules *one* event per broadcast that fans
out to every surviving receiver when it fires, rather than one event
per directed delivery, (c) draws all of a broadcast's noise decisions
through :meth:`NoiseModel.delivers_block` in one call, and (d) bypasses
trace-record construction entirely for kinds the recorder does not
retain.  None of this changes the event ordering or RNG draw
sequence of a run: deliveries of one broadcast share a timestamp and
fired back-to-back before under the ``(time, seq)`` order anyway, and
noise draws happen at transmission time in neighbour order exactly as
before.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Optional, Tuple

from ..errors import SimulationError
from ..topology import NodeId
from . import trace as trace_kinds

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .process import Process
    from .radio import RadioMedium, _Fanout
    from .simulator import Simulator


def register_process(sim: "Simulator", process: "Process") -> None:
    """Attach a protocol process to its node and the radio."""
    node = process.node
    if node not in sim._topology:
        raise SimulationError(f"cannot register a process at unknown node {node}")
    if node in sim._processes:
        raise SimulationError(f"a process is already registered at node {node}")
    process.bind(sim)
    sim._processes[node] = process
    sim._radio.attach(node, process.deliver)


def _start_processes(sim: "Simulator") -> None:
    if sim._started:
        return
    sim._started = True
    sim._radio.reset()
    processes = sim._processes
    for node in sorted(processes):
        processes[node].start()


def step(sim: "Simulator") -> bool:
    """Execute the next event.  Returns ``False`` when none remain."""
    _start_processes(sim)
    queue = sim._events()
    if queue.empty:
        return False
    event = queue.pop()
    sim._now = event.time
    event.fire()
    return True


def run(
    sim: "Simulator",
    until: Optional[float] = None,
    max_events: Optional[int] = None,
) -> None:
    """Run events until the queue drains, ``until`` passes, or
    ``max_events`` have executed (whichever comes first).

    ``until`` is inclusive: events scheduled exactly at ``until``
    still fire; on exit the clock is advanced to ``until`` if the
    run exhausted earlier events.
    """
    _start_processes(sim)
    sim._stop_requested = False
    executed = 0
    queue = sim._events()
    peek_time = queue.peek_time
    pop = queue.pop
    while not sim._stop_requested:
        next_time = peek_time()
        if next_time is None:
            break
        if until is not None and next_time > until:
            break
        if max_events is not None and executed >= max_events:
            break
        event = pop()
        sim._now = event.time
        event.fire()
        executed += 1
    if until is not None and sim._now < until and not sim._stop_requested:
        sim._now = until


def broadcast(radio: "RadioMedium", sender: NodeId, message: Any) -> None:
    """Transmit ``message`` from ``sender`` to all nodes in range.

    Every attached neighbour receives an independent delivery (after
    noise); every eavesdropper whose location is the sender or one of
    its neighbours overhears the frame at transmission time.  RNG
    draw order: one block of noise decisions in neighbour order, then
    one audibility decision per eavesdropper in range.
    """
    sim = radio._sim
    now = sim.now
    rng = sim.rng
    trace = sim.trace
    noise = radio._noise
    if radio._keep_send:
        trace.record(now, trace_kinds.SEND, sender=sender, message=message)
    else:
        trace.bump(trace_kinds.SEND)

    fanout, receiver_ids = radio._fanout_of(sender)
    surviving: _Fanout
    if not fanout:
        surviving = ()
    else:
        flags = noise.delivers_block(sender, receiver_ids, rng)
        if all(flags):
            surviving = fanout
        else:
            kept: List[Tuple[NodeId, Callable[[NodeId, Any, float], None]]] = []
            keep_drop = radio._keep_drop
            for pair, delivered in zip(fanout, flags):
                if delivered:
                    kept.append(pair)
                elif keep_drop:
                    trace.record(now, trace_kinds.DROP, sender=sender, receiver=pair[0])
                else:
                    trace.bump(trace_kinds.DROP)
            surviving = tuple(kept)

    if radio._eavesdroppers:
        audible = radio._audible_of(sender)
        for eavesdropper in list(radio._eavesdroppers):
            if eavesdropper.location in audible:
                if noise.delivers(sender, -1, rng):
                    if radio._keep_hear:
                        trace.record(
                            now,
                            trace_kinds.ATTACKER_HEAR,
                            sender=sender,
                            location=eavesdropper.location,
                        )
                    else:
                        trace.bump(trace_kinds.ATTACKER_HEAR)
                    eavesdropper.overhear(sender, message, now)
    if surviving:
        sim.schedule_after(
            radio._propagation_delay,
            _deliver,
            (radio, sender, message, surviving),
        )


def _deliver(
    radio: "RadioMedium", sender: NodeId, message: Any, deliveries: "_Fanout"
) -> None:
    """Fan one broadcast out to all its surviving receivers.

    Receivers fire in neighbour order — identical to the order the
    per-receiver events of one broadcast popped in before batching,
    since they shared a timestamp and consecutive sequence numbers.
    """
    now = radio._sim.now
    trace = radio._sim.trace
    window = radio._collision_window
    keep_deliver = radio._keep_deliver
    if window > 0.0:
        last_arrival = radio._last_arrival
        for receiver, callback in deliveries:
            last = last_arrival.get(receiver)
            last_arrival[receiver] = now
            if last is not None and now - last < window:
                if radio._keep_collide:
                    trace.record(
                        now, trace_kinds.COLLIDE, sender=sender, receiver=receiver
                    )
                else:
                    trace.bump(trace_kinds.COLLIDE)
                continue
            if keep_deliver:
                trace.record(now, trace_kinds.DELIVER, sender=sender, receiver=receiver)
            else:
                trace.bump(trace_kinds.DELIVER)
            callback(sender, message, now)
        return
    for receiver, callback in deliveries:
        if keep_deliver:
            trace.record(now, trace_kinds.DELIVER, sender=sender, receiver=receiver)
        else:
            trace.bump(trace_kinds.DELIVER)
        callback(sender, message, now)
