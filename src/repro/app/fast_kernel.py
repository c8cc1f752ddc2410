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

* period boundaries apply the run's lowered perturbation steps
  (:data:`~repro.app.perturbations.PerturbationStep`) directly, through the
  step semantics both engines share (:func:`~repro.app.perturbations.apply_step`);
* period-start hooks run in the legacy client order (attacker ``NextP``,
  source-plan advance, then the nodes' period resets);
* each slot group's broadcasts are transmitted first and delivered
  *after* the whole group has transmitted — the order the
  ``(time, seq)`` heap produced, since deliveries lag transmissions by
  the propagation delay.

The message path itself is the **fast lane** (:func:`compile_fast_lane`):
the convergecast behaviour of the run is compiled into flat per-node
forwarding tables — for each sender, the aggregation targets of its
fan-out and the noise model's compiled drawer for that fan-out
(:meth:`~repro.simulator.NoiseModel.compile_lane`) — and the whole
transmit→noise→deliver→forward chain runs as a table-driven loop: no
:class:`AggregateMessage` construction, no ``RadioMedium.broadcast``
calls, no ``Process.deliver`` → ``on_receive`` dispatch.  Node state
(pending origins, mutes, deaths) lives in the kernel's own arrays, so
the fast path builds no event heap, no ``TdmaDriver`` and no per-node
process objects; those load only for the legacy engine.  Tables are
compiled after the run resets the noise model's per-link state (a
drawer compiled before the reset is stale): first from the topology's
neighbour rows — at the start every node is attached, so a fan-out is
just the neighbour order — and then, whenever the radio's attachment
epoch moves (node death/sleep/wake perturbations), from the live radio
for the toggled nodes' neighbours only, the only fan-outs a toggle
changes.

**Equivalence contract.**  A fast-kernel run is bit-identical to a
legacy run: same RNG draw order (noise decisions in neighbour order per
broadcast, then the eavesdropper's audibility draw, then any attacker
tie-break), same trace records and counters, same
:class:`~repro.app.runtime.OperationalResult`.
``tests/test_fast_kernel.py`` enforces this differentially for every
registered scenario on both engines.  The harness runs a ``"fast"``
request on the legacy engine whenever the fast kernel cannot prove it
equivalent: geometries it cannot honour (:func:`fast_kernel_supported`)
and runs the lane cannot compile (:func:`fast_lane_compilable`).
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..attacker import EavesdropperAgent
from ..attacker.decision import HeardMessage
from ..mac import TdmaFrame
from ..simulator import PERIOD_START, Simulator
from ..simulator import trace as trace_kinds
from ..simulator.noise import LaneDrawer, NoiseModel
from ..telemetry import active_tracer
from ..topology import NodeId
from .dynamics import SourceTracker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .perturbations import PerturbationStep

#: Timeline entry: (slot, offset from period start, senders in fire order).
_SlotGroup = Tuple[int, float, Tuple[NodeId, ...]]

#: Per-sender forwarding-table entry:
#: (the sender's dense node index,
#:  per-receiver aggregation targets: the receiver's dense node index
#:  when it aggregates this sender's traffic, or ``-1`` when the
#:  traffic is heard and counted but never folded,
#:  the noise drawer mapping one broadcast to the targets it reached,
#:  the targets that fold when every frame arrives: the non-negative ones).
_LaneEntry = Tuple[int, Tuple[int, ...], LaneDrawer, Tuple[int, ...]]


def _no_receivers(rng: object) -> Tuple[int, ...]:
    """The drawer of a sender with no attached neighbour: no draws."""
    return ()


def _lane_delivered(sender: NodeId, message: object, time: float) -> None:
    """The radio callback of a fast-path node: the lane delivers, so the
    medium only tracks which nodes are attached."""


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
    frame: TdmaFrame, slots: Mapping[NodeId, int]
) -> Tuple[_SlotGroup, ...]:
    """Flatten the senders' ``slots`` into per-period slot groups, in
    fire order.

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
    for node, slot in slots.items():
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
def fast_lane_compilable(sim: Simulator, timeline: Tuple[_SlotGroup, ...]) -> bool:
    """Whether the run can be compiled into forwarding tables.

    :func:`~repro.app.runtime.run_operational_phase` builds the medium,
    the attacker and the node state itself, so only two properties of
    a run can stop the lane:

    * the trace retains SEND/DELIVER/DROP records — those streams are
      per-message objects the lane deliberately never builds (counts
      are still maintained exactly);
    * a slot group contains a sender audible to another sender of the
      same group.  Def. 1's 2-hop separation rules this out for every
      schedule the library builds; it is what lets the lane union live
      pending sets at delivery time instead of snapshotting a frozen
      origins set per message, because no sender's aggregate can change
      between its transmission and its group's delivery.
    """
    trace = sim.trace
    if (
        trace.wants(trace_kinds.SEND)
        or trace.wants(trace_kinds.DELIVER)
        or trace.wants(trace_kinds.DROP)
    ):
        return False
    neighbours = sim.topology.neighbours
    for _slot, _offset, senders in timeline:
        if len(senders) > 1:
            group = frozenset(senders)
            for node in senders:
                # A node is audible exactly at itself and its neighbours.
                if not group.isdisjoint(neighbours(node)):
                    return False
    return True


def compile_fast_lane(
    noise: NoiseModel,
    parents: Mapping[NodeId, Optional[NodeId]],
    sink: NodeId,
    index: Mapping[NodeId, int],
    fanouts: Iterable[Tuple[NodeId, Sequence[NodeId]]],
) -> Dict[NodeId, _LaneEntry]:
    """Compile the forwarding-table entries of ``(sender, receivers)``
    fan-outs.

    Each entry stores the sender's dense index into ``index`` (sorted
    node order — the same order the pending-origin bitmasks are
    bit-indexed by); per receiver (attached neighbours, in the exact
    order :meth:`RadioMedium.broadcast` uses) either the receiver's
    dense index (when the receiver aggregates this sender's traffic: it
    is the sink or the sender's parent) or ``-1`` (traffic heard and
    counted, never folded); the noise model's drawer for that fan-out;
    and the targets that fold when every frame arrives.

    An entry is valid until its fan-out changes (a neighbour attaches
    or detaches) or the noise model resets; :func:`run_fast_kernel`
    compiles after the reset and recompiles the toggled nodes'
    neighbours after every perturbation boundary that touched the
    medium.
    """
    compile_lane = noise.compile_lane
    tables: Dict[NodeId, _LaneEntry] = {}
    for node, receivers in fanouts:
        parent = parents[node]
        targets = tuple(
            index[receiver] if receiver == sink or receiver == parent else -1
            for receiver in receivers
        )
        draw = (
            compile_lane(node, receivers, targets) if receivers else _no_receivers
        )
        folds = tuple(target for target in targets if target >= 0)
        tables[node] = (index[node], targets, draw, folds)
    return tables


def run_fast_kernel(
    sim: Simulator,
    frame: TdmaFrame,
    periods_budget: int,
    parents: Mapping[NodeId, Optional[NodeId]],
    agent: EavesdropperAgent,
    tracker: SourceTracker,
    timeline: Tuple[_SlotGroup, ...],
    steps: Sequence["PerturbationStep"],
) -> Tuple[int, Dict[int, int]]:
    """Execute the operational phase; returns the last period begun and
    the sink's per-period count of collected readings.

    Mirrors ``TdmaDriver`` + ``Simulator.run`` of the legacy engine on
    compiled forwarding tables, applying the lowered perturbation
    ``steps`` at their period boundaries.  The caller must have checked
    :func:`fast_kernel_supported` and :func:`fast_lane_compilable`
    (with this ``timeline``, from :func:`build_slot_timeline`); see the
    module docstring for the equivalence contract.  ``parents`` is the
    compressed schedule's parent map (the sink maps to ``None``).

    The per-message chain — emit, noise block, eavesdropper audibility,
    fan-out, aggregation — runs as plain loops over the tables.
    The per-node pending origin sets live as node-indexed **bitmask
    ints** (bit *i* set ⇔ node ``nodes[i]``'s reading is aggregated),
    so a delivery's fold is one ``|=`` and the sink's per-period take is
    one ``bit_count()``.
    The eavesdropper's hear path runs inline against a precomputed
    audibility row — the set of senders audible from the attacker's
    current location, rebuilt only when the attacker moves — and its
    ``ARcv`` buffering happens without a call; the rare ``Decide`` step
    (a move, an RNG tie-break, a capture test) delegates to the real
    agent so times, periods and paths stay bit-identical.  Message and
    trace totals are flushed onto the trace recorder on every exit
    path, so downstream accounting observes exactly what the legacy
    engine would have produced.
    """
    radio = sim.radio
    topology = radio.topology
    neighbours = topology.neighbours
    trace = sim.trace
    record = trace.record
    rng = sim.rng
    noise = radio.noise
    delivers = noise.delivers
    keep_hear = trace.wants(trace_kinds.ATTACKER_HEAR)

    metrics = topology.metrics
    nodes = metrics.order
    index = metrics.index
    sink = topology.sink
    sink_idx = index[sink]
    collected: Dict[int, int] = {}
    #: per-node pending-origin bitmasks, and each node's own bit.
    own_bit = [0 if node == sink else (1 << i) for i, node in enumerate(nodes)]
    pending: List[int] = [0] * len(nodes)

    # Node state: every node starts attached and awake; perturbation
    # steps toggle the radio attachment and the transmit mute together.
    muted: Set[NodeId] = set()
    dead: Set[NodeId] = set()
    attach = radio.attach
    detach = radio.detach

    def toggle(node: NodeId, awake: bool) -> None:
        if awake:
            attach(node, _lane_delivered)
            muted.discard(node)
        else:
            detach(node)
            muted.add(node)

    for node in nodes:
        attach(node, _lane_delivered)
    # The run's reset comes before any drawer is compiled.
    radio.reset()
    transmitters = frozenset(n for _s, _o, group in timeline for n in group)
    # All attached: each fan-out is the topology's neighbour row.
    neighbour_ids = metrics.neighbour_ids
    tables = compile_fast_lane(
        noise,
        parents,
        sink,
        index,
        ((node, neighbour_ids[index[node]]) for node in sorted(transmitters)),
    )
    built_epoch = radio.epoch
    step_count = len(steps)
    next_step = 0
    if steps:
        from .perturbations import apply_step

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
    audible_rows: Dict[NodeId, FrozenSet[NodeId]] = {}

    def audibility_row(location: NodeId) -> FrozenSet[NodeId]:
        # Audibility is symmetric (s is audible at l ⇔ l ∈ {s} ∪ N(s)
        # ⇔ s ∈ {l} ∪ N(l)), so the row is one set intersection.
        row = audible_rows.get(location)
        if row is None:
            row = radio.audible_set(location) & transmitters
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
            # Perturbation steps come first at their boundary, as the
            # legacy heap fires them before the period's own events.
            while next_step < step_count and steps[next_step][0] <= period:
                _period, action, step_nodes = steps[next_step]
                apply_step(action, step_nodes, dead, toggle)
                next_step += 1
            if radio.epoch != built_epoch:
                # A toggled node changes only its neighbours' fan-outs.
                stale = {
                    neighbour
                    for node in radio.toggled_since(built_epoch)
                    for neighbour in neighbours(node)
                }
                fanout = radio.fanout
                tables.update(
                    compile_fast_lane(
                        noise,
                        parents,
                        sink,
                        index,
                        (
                            (node, fanout(node)[1])
                            for node in sorted(stale & transmitters)
                        ),
                    )
                )
                built_epoch = radio.epoch

            # Period-start hooks, in the legacy driver's client order:
            # the attacker's NextP, the source-plan advance (a rotation
            # landing on the attacker is a capture), then every node
            # (the resets below are the legacy process's on_period_start).
            record(boundary, PERIOD_START, period=period)
            agent.on_period_start(period, boundary)
            active = tracker.advance(period)
            if not agent.captured and agent.location in active:
                agent.register_capture(agent.location, boundary)
            if period > 0:
                collected[period - 1] = pending[sink_idx].bit_count()
            pending[:] = own_bit
            if agent.captured:
                # The legacy engine stops before any slot event of this
                # period fires; the boundary hooks above already ran.
                return current_period, collected

            # Matches TdmaFrame.slot_start's float-addition order:
            # (period_start + dissemination) + (slot - 1) * slot_duration.
            slot_base = boundary + dissemination
            for _slot, offset, senders in timeline:
                slot_time = slot_base + offset
                group_deliveries: List[Tuple[int, Tuple[int, ...]]] = []
                group_arrivals = 0
                for node in senders:
                    if node in muted:
                        continue  # on_slot() would stay silent
                    s_idx, targets, draw, folds = tables[node]
                    sends += 1
                    kept = draw(rng)
                    if kept is targets:
                        group_arrivals += len(targets)
                    else:
                        drops += len(targets) - len(kept)
                        group_arrivals += len(kept)
                        folds = tuple(target for target in kept if target >= 0)
                    if folds:
                        group_deliveries.append((pending[s_idx], folds))
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
                                    return current_period, collected
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
                # counts undelivered ones.  Only the folding targets are
                # buffered; the others are just counted.
                delivers_count += group_arrivals
                for origins, folds in group_deliveries:
                    for target in folds:
                        pending[target] |= origins
        return current_period, collected
    finally:
        trace.bump_many(trace_kinds.SEND, sends)
        trace.bump_many(trace_kinds.DELIVER, delivers_count)
        trace.bump_many(trace_kinds.DROP, drops)
        trace.bump_many(trace_kinds.ATTACKER_HEAR, hears)
        # The sink's take of the period the run ended in.
        collected[current_period] = pending[sink_idx].bit_count()
        if period_span is not None:
            tracer.end(period_span)
