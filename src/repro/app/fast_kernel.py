"""The operational-phase fast kernel: a flat slot timeline driving a
table-driven message path.

There are two operational engines.  The **legacy** engine drives one
evaluation run through the generic event heap: one ``_begin_period``
event per TDMA period, one slot event per sender per period, one
delivery event per broadcast.  It is the oracle the fast kernel is
tested against and the fallback for runs the fast kernel cannot take.
Profiling shows that for the paper's workloads this generic machinery —
heap pushes and pops, ``Event`` dispatch, the per-period client/slot
re-sorting in the TDMA driver — dominates run time, even though the
TDMA operational phase is almost perfectly *regular*: every period
replays the same slot timeline, and the only irregular events are
scenario perturbations at period boundaries.

The **fast** kernel (:func:`run_fast_kernel`) exploits that regularity.
It precomputes the period's slot timeline once — ``(slot, time offset,
senders)`` groups in exactly the order the heap would fire them — and
then executes periods with plain loops:

* period boundaries drain the event heap (perturbation steps keep using
  real events, so anything scheduled against the simulator still fires
  at the right point);
* period-start hooks run in the legacy client order (attacker ``NextP``,
  source-plan advance, node processes in ascending node id);
* each slot group's broadcasts are transmitted first and delivered
  *after* the whole group has transmitted — the order the
  ``(time, seq)`` heap produced, since deliveries lag transmissions by
  the propagation delay.

The message path itself is the **fast lane** (:func:`compile_fast_lane`):
the convergecast behaviour of the run is compiled into flat per-node
forwarding tables — for each sender, the noise receiver-id block, the
aggregation target sets of its fan-out, and its audibility set — and
the whole transmit→noise→deliver→forward chain runs as a table-driven
loop: no :class:`AggregateMessage` construction, no
``RadioMedium.broadcast`` calls, no ``Process.deliver`` →
``on_receive`` dispatch.  Tables are rebuilt whenever the radio's
attachment epoch moves (node death/sleep/wake perturbations).

**Equivalence contract.**  A fast-kernel run is bit-identical to a
legacy run: same RNG draw order (noise decisions in neighbour order per
broadcast, then the eavesdropper's audibility draw, then any attacker
tie-break), same trace records and counters, same
:class:`~repro.app.runtime.OperationalResult`.
``tests/test_fast_kernel.py`` enforces this differentially for every
registered scenario on both engines.  The harness runs a ``"fast"``
request on the legacy engine whenever the fast kernel cannot prove it
equivalent: geometries it cannot honour (:func:`fast_kernel_supported`)
and behaviours the lane cannot compile (:func:`fast_lane_compilable`).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..attacker import EavesdropperAgent
from ..attacker.decision import HeardMessage
from ..mac import TdmaFrame
from ..simulator import PERIOD_START, Simulator
from ..simulator import trace as trace_kinds
from ..telemetry import active_tracer
from ..topology import NodeId
from .convergecast import ConvergecastNodeProcess
from .dynamics import SourceTracker

#: Timeline entry: (slot, offset from period start, senders in fire order).
_SlotGroup = Tuple[int, float, Tuple[NodeId, ...]]

#: Per-sender forwarding-table entry:
#: (the sender's dense node index,
#:  receiver ids fed to the noise block-draw,
#:  per-receiver aggregation targets — the receiver's dense node index
#:  when it aggregates this sender's traffic, or ``-1`` when the
#:  traffic is heard and counted but never folded).
_LaneEntry = Tuple[int, Tuple[NodeId, ...], Tuple[int, ...]]


def fast_kernel_supported(frame: TdmaFrame, propagation_delay: float) -> bool:
    """Whether the fast kernel preserves legacy event order for ``frame``.

    The kernel delivers each slot group's broadcasts before the next
    group transmits, which matches the heap order only while a delivery
    (transmission time + propagation delay) lands strictly before the
    next slot boundary.  Every realistic frame satisfies this (the
    paper's slots are 0.05 s against a 0.1 ms delay); degenerate frames
    fall back to the legacy engine.
    """
    return frame.slot_duration > propagation_delay


def build_slot_timeline(
    frame: TdmaFrame, processes: Dict[NodeId, ConvergecastNodeProcess]
) -> Tuple[_SlotGroup, ...]:
    """Flatten the schedule into per-period slot groups, in fire order.

    The legacy driver schedules one event per ``(node, slot)`` pair at
    ``slot_start(period, slot)``; the heap therefore fires slots in
    ascending slot order and, within one slot, in ascending node order
    (equal timestamps resolve by insertion sequence, and the driver
    inserts in sorted node order).  The timeline reproduces exactly that
    order as a flat structure computed once per run.

    The stored offset is ``(slot - 1) × slot_duration`` *relative to the
    dissemination boundary*, so the kernel can reassemble timestamps in
    the exact float-addition order of ``TdmaFrame.slot_start`` —
    ``(period_start + dissemination) + offset``.  Float addition is not
    associative; grouping differently would shift some frames' trace
    timestamps by one ulp and break bit-identity with the legacy heap.
    """
    by_slot: Dict[int, List[NodeId]] = {}
    for node, process in processes.items():
        slot = process.slot
        if slot is not None:
            by_slot.setdefault(slot, []).append(node)
    slot_duration = frame.slot_duration
    return tuple(
        (
            slot,
            (slot - 1) * slot_duration,
            tuple(sorted(by_slot[slot])),
        )
        for slot in sorted(by_slot)
    )


# ----------------------------------------------------------------------
# The message-path fast lane
# ----------------------------------------------------------------------
def fast_lane_compilable(
    sim: Simulator,
    processes: Dict[NodeId, ConvergecastNodeProcess],
    agent: EavesdropperAgent,
    timeline: Tuple[_SlotGroup, ...],
) -> bool:
    """Whether the run's behaviour can be compiled into forwarding tables.

    The lane replaces object dispatch with precomputed tables, so it
    engages only when every behaviour it would bypass is the stock one:

    * every node process is exactly :class:`ConvergecastNodeProcess` —
      a third-party subclass may override ``on_slot``/``on_receive`` and
      must run on the legacy engine;
    * the eavesdropper is exactly :class:`EavesdropperAgent` (custom
      agents, including exotic ``capture_test`` wrappers that subclass
      it, run on the legacy engine) and is the only listener attached;
    * the trace is not retaining SEND/DELIVER/DROP records — those
      streams are per-message objects the lane deliberately never
      builds (counts are still maintained exactly);
    * the collision window is off (TDMA operation never uses it);
    * no slot group contains a sender audible to another sender of the
      same group.  Def. 1's 2-hop separation guarantees this for every
      schedule the library builds; it is what lets the lane union live
      pending sets at delivery time instead of snapshotting a frozen
      origins set per message, because no sender's aggregate can change
      between its transmission and its group's delivery.
    """
    trace = sim.trace
    radio = sim.radio
    if radio.collision_window > 0.0:
        return False
    if (
        trace.wants(trace_kinds.SEND)
        or trace.wants(trace_kinds.DELIVER)
        or trace.wants(trace_kinds.DROP)
    ):
        return False
    if type(agent) is not EavesdropperAgent:
        return False
    if radio.eavesdroppers != (agent,):
        return False
    if any(type(p) is not ConvergecastNodeProcess for p in processes.values()):
        return False
    for _slot, _offset, senders in timeline:
        group = frozenset(senders)
        for node in senders:
            # audible_set(node) is {node} ∪ neighbours(node): any other
            # group member inside it would hear this sender.
            if not (radio.audible_set(node) & group) <= {node}:
                return False
    return True


def compile_fast_lane(
    sim: Simulator,
    processes: Dict[NodeId, ConvergecastNodeProcess],
    sink: NodeId,
    index: Dict[NodeId, int],
) -> Tuple[Dict[NodeId, _LaneEntry], Set[NodeId]]:
    """Compile the per-node forwarding tables for the current radio state.

    For every transmitting node the table stores its dense index into
    ``index`` (sorted node order — the same order the pending-origin
    bitmasks are bit-indexed by), the receiver-id tuple fed to the noise
    block-draw (attached neighbours, in the exact order
    :meth:`RadioMedium.broadcast` uses), and — per receiver — either the
    receiver's dense index (when the receiver aggregates this sender's
    traffic: it is the sink, or the sender is one of its installed
    children) or ``-1`` (traffic heard and counted, never folded).
    Also returns the set of currently muted (asleep) nodes.

    Valid until the radio's attachment :attr:`~RadioMedium.epoch` moves;
    the run loop recompiles after every perturbation boundary that
    touched the medium.
    """
    radio = sim.radio
    children_of = {node: proc._children for node, proc in processes.items()}
    tables: Dict[NodeId, _LaneEntry] = {}
    for node, proc in processes.items():
        if proc.slot is None:
            continue
        fanout, receiver_ids = radio.fanout(node)
        targets = tuple(
            index[receiver]
            if (receiver == sink or node in children_of[receiver])
            else -1
            for receiver, _callback in fanout
        )
        tables[node] = (index[node], receiver_ids, targets)
    muted = {node for node, proc in processes.items() if proc.asleep}
    return tables, muted


def run_fast_kernel(
    sim: Simulator,
    frame: TdmaFrame,
    periods_budget: int,
    processes: Dict[NodeId, ConvergecastNodeProcess],
    agent: EavesdropperAgent,
    tracker: SourceTracker,
    timeline: Tuple[_SlotGroup, ...],
) -> int:
    """Execute the operational phase; returns the last period begun.

    Mirrors ``TdmaDriver`` + ``Simulator.run`` on compiled forwarding
    tables while keeping the heap for perturbation steps already
    scheduled against ``sim``.  The caller must have checked
    :func:`fast_kernel_supported` and :func:`fast_lane_compilable`
    (with this ``timeline``, from :func:`build_slot_timeline`); see the
    module docstring for the equivalence contract.

    The per-message chain — emit, noise block, eavesdropper audibility,
    fan-out, aggregation — runs as plain loops over the tables; the
    event heap is consulted only at period boundaries (perturbations).
    The per-node pending origin sets live as node-indexed **bitmask
    ints** (bit *i* set ⇔ node ``nodes[i]``'s reading is aggregated),
    so a delivery's fold is one ``|=`` and the sink's per-period take is
    one ``bit_count()``; real sets are reconstructed only at sync time.
    The eavesdropper's hear path runs inline against a precomputed
    audibility row — the set of senders audible from the attacker's
    current location, rebuilt only when the attacker moves — and its
    ``ARcv`` buffering happens without a call; the rare ``Decide`` step
    (a move, an RNG tie-break, a capture test) delegates to the real
    agent so times, periods and paths stay bit-identical.  State (send
    counts, trace totals, pending origins) is synced back onto the
    process objects and the trace recorder on every exit path, so
    downstream accounting observes exactly what the legacy engine would
    have produced.
    """
    radio = sim.radio
    trace = sim.trace
    record = trace.record
    rng = sim.rng
    noise = radio.noise
    delivers = noise.delivers
    delivers_block = noise.delivers_block
    keep_hear = trace.wants(trace_kinds.ATTACKER_HEAR)

    nodes = sorted(processes)
    index = {node: i for i, node in enumerate(nodes)}
    sink = next(node for node in nodes if processes[node].is_sink)
    sink_idx = index[sink]
    sink_collected = processes[sink].collected_by_period
    #: per-node pending-origin bitmasks, and each node's own bit.
    own_bit = [0 if node == sink else (1 << i) for i, node in enumerate(nodes)]
    pending: List[int] = [0] * len(nodes)
    sent: List[int] = [0] * len(nodes)

    tables, muted = compile_fast_lane(sim, processes, sink, index)
    built_epoch = radio.epoch

    # The attacker's compiled hear/decide state: its Figure 1 machine,
    # the R/M caps, a per-sender slot memo (one `slot_lookup` call per
    # sender heard, instead of one per overheard broadcast), and the
    # audibility row of its current location (location → row memoised:
    # audibility is topology-derived and immutable for the run).
    astate = agent.state
    r_cap = astate.spec.r
    m_cap = astate.spec.m
    amsgs = astate.messages
    slot_memo: Dict[NodeId, int] = {}
    audible_rows: Dict[NodeId, frozenset] = {}

    def audibility_row(location: NodeId) -> frozenset:
        row = audible_rows.get(location)
        if row is None:
            audible_of = radio.audible_set
            row = frozenset(s for s in tables if location in audible_of(s))
            audible_rows[location] = row
        return row

    arow = audibility_row(agent.location)

    period_length = frame.period_length
    dissemination = frame.dissemination_duration
    sends = delivers_count = drops = hears = 0
    current_period = 0
    # One open period span at a time: ended when the next period begins
    # (or in the finally, covering every early return).  Disabled cost
    # is one `is not None` check per period.
    tracer = active_tracer()
    period_span = None
    try:
        for period in range(periods_budget):
            current_period = period
            if tracer is not None:
                if period_span is not None:
                    tracer.end(period_span)
                period_span = tracer.begin("operational.period", period=period)
            boundary = period * period_length
            # Perturbation steps were queued before anything else, so at
            # a shared boundary timestamp the heap fires them first —
            # run() drains everything due, then advances the clock.
            sim.run(until=boundary)
            if radio.epoch != built_epoch:
                tables, muted = compile_fast_lane(sim, processes, sink, index)
                built_epoch = radio.epoch

            # Period-start hooks, in the legacy driver's client order:
            # the attacker's NextP, the source-plan advance (a rotation
            # landing on the attacker is a capture), then every node
            # process (the resets below are its on_period_start).
            record(boundary, PERIOD_START, period=period)
            agent.on_period_start(period, boundary)
            active = tracker.advance(period)
            if not agent.captured and agent.location in active:
                agent.register_capture(agent.location, boundary)
            if period > 0:
                sink_collected[period - 1] = pending[sink_idx].bit_count()
            pending[:] = own_bit
            if agent.captured:
                # The legacy engine stops before any slot event of this
                # period fires; the boundary hooks above already ran.
                return current_period

            # Matches TdmaFrame.slot_start's float-addition order:
            # (period_start + dissemination) + (slot - 1) * slot_duration.
            slot_base = boundary + dissemination
            for _slot, offset, senders in timeline:
                slot_time = slot_base + offset
                group_deliveries: List[Tuple[int, Tuple[int, ...]]] = []
                for node in senders:
                    if node in muted:
                        continue  # on_slot() would stay silent
                    s_idx, receiver_ids, targets = tables[node]
                    sent[s_idx] += 1
                    sends += 1
                    if receiver_ids:
                        flags = delivers_block(node, receiver_ids, rng)
                        if all(flags):
                            group_deliveries.append((pending[s_idx], targets))
                        else:
                            kept = tuple(
                                target
                                for target, flag in zip(targets, flags)
                                if flag
                            )
                            drops += len(targets) - len(kept)
                            if kept:
                                group_deliveries.append((pending[s_idx], kept))
                    if node in arow:
                        if delivers(node, -1, rng):
                            if keep_hear:
                                record(
                                    slot_time,
                                    trace_kinds.ATTACKER_HEAR,
                                    sender=node,
                                    location=agent.location,
                                )
                            else:
                                hears += 1
                            # Inline ARcv: buffer up to R, then Decide.
                            if len(amsgs) < r_cap:
                                slot_of = slot_memo.get(node)
                                if slot_of is None:
                                    try:
                                        slot_of = agent._slot_lookup(node)
                                    except Exception:
                                        slot_of = 0
                                    slot_memo[node] = slot_of
                                amsgs.append(
                                    HeardMessage(
                                        sender=node, slot=slot_of, time=slot_time
                                    )
                                )
                            if len(amsgs) >= r_cap and astate.moves < m_cap:
                                location = astate.location
                                agent._decide(slot_time)
                                if agent.captured:
                                    # A capture ends the run after the
                                    # event that caused it: later senders
                                    # of this slot never transmit and the
                                    # group's buffered deliveries never
                                    # fire, exactly as the legacy loop
                                    # stops with those events queued.
                                    return current_period
                                if astate.location != location:
                                    arow = audibility_row(astate.location)
                # Deliver the whole group after it transmitted (the
                # (time, seq) heap order).  Each buffered entry snapshots
                # the sender's origin mask at transmit time — the exact
                # frozen-origins semantics of AggregateMessage — and the
                # group-isolation compile check guarantees that equals
                # the delivery-time value.  DELIVER is counted here, not
                # at transmit time: a capture mid-group discards the
                # buffered deliveries, and the legacy engine never
                # counts undelivered ones.
                for origins, kept_targets in group_deliveries:
                    delivers_count += len(kept_targets)
                    for target in kept_targets:
                        if target >= 0:
                            pending[target] |= origins
        return current_period
    finally:
        trace.bump_many(trace_kinds.SEND, sends)
        trace.bump_many(trace_kinds.DELIVER, delivers_count)
        trace.bump_many(trace_kinds.DROP, drops)
        trace.bump_many(trace_kinds.ATTACKER_HEAR, hears)
        for i, node in enumerate(nodes):
            mask = pending[i]
            origins = set()
            while mask:
                low = mask & -mask
                origins.add(nodes[low.bit_length() - 1])
                mask ^= low
            processes[node].adopt_state(current_period, origins, sent[i])
        if period_span is not None:
            tracer.end(period_span)
