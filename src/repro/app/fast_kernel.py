"""The operational-phase fast kernel: a flat slot timeline driving
block-drawn periods.

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
lays a period out as one list of **spans**, ``(sender, receivers)`` in
fire order, rebuilt only when the radio's attachment epoch moves
(node death/sleep/wake perturbations, applied at period boundaries
through :func:`~repro.app.perturbations.apply_step`, the step semantics
both engines share).  A span whose sender the attacker can hear from
its current location ends with the hear lane ``-1``; the spans with
their hear lanes are memoised per attacker location.

A period then runs in **stretches**.  The only RNG consumer besides the
noise model is the attacker's ``Decide`` (a move tie-break), and it can
run only right after a hear lane delivers with ``R`` messages buffered
and moves left.  So a stretch ends at the first hear lane where
``Decide`` *could* run — counting every hear before it as delivered —
or at the period's end once the move budget is spent.  Each stretch is
one :meth:`~repro.simulator.NoiseModel.draw_block` call, which takes
the stretch's random words in one go and returns the lost lanes; the
stretch's hears are then replayed in order (``ATTACKER_HEAR``, the
inline ``ARcv`` buffer, and ``Decide`` on the real agent).  No message
object, ``RadioMedium.broadcast`` call or node process exists on this
path; node state (pending origins, mutes, deaths) lives in the kernel's
own arrays.

Aggregation is folded once per period, in fire order, over the lanes
that reached a sink or parent: each node's pending origins are a
node-indexed **bitmask int**, so a fold is one ``|=`` and the sink's
per-period take one ``bit_count()``.  Folding after the fact is exact
because a slot group's senders cannot hear one another
(:func:`fast_lane_compilable`), so no sender's mask changes between its
transmission and its group's delivery.  A capture mid-group ends the
run with that group's deliveries discarded, as the heap stops with them
queued: the counters and the fold then cover the earlier groups only.

**Equivalence contract.**  A fast-kernel run is bit-identical to a
legacy run: same RNG draw order (noise decisions in neighbour order per
broadcast, then the eavesdropper's audibility draw, then any attacker
tie-break), same trace records and counters, same
:class:`~repro.app.runtime.OperationalResult`.
``tests/test_fast_kernel.py`` enforces this differentially for every
registered scenario on both engines.  The harness runs a ``"fast"``
request on the legacy engine whenever the fast kernel cannot prove it
equivalent: geometries it cannot honour (:func:`fast_kernel_supported`)
and runs it cannot lay out (:func:`fast_lane_compilable`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate
from operator import itemgetter
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
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
from ..telemetry import active_tracer
from ..topology import NodeId
from .dynamics import SourceTracker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .perturbations import PerturbationStep

#: Timeline entry: (slot, offset from period start, senders in fire order).
_SlotGroup = Tuple[int, float, Tuple[NodeId, ...]]

#: The receiver of a hear lane: the attacker, after the sender's fan-out.
_HEAR = -1


def _lane_delivered(sender: NodeId, message: object, time: float) -> None:
    """The radio callback of a fast-path node: the kernel delivers, so
    the medium only tracks which nodes are attached."""


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


def fast_lane_compilable(sim: Simulator, timeline: Tuple[_SlotGroup, ...]) -> bool:
    """Whether the fast kernel can lay the run out as block-drawn periods.

    :func:`~repro.app.runtime.run_operational_phase` builds the medium,
    the attacker and the node state itself, so only two properties of
    a run can stop the kernel:

    * the trace retains SEND/DELIVER/DROP records — those streams are
      per-message objects the kernel deliberately never builds (counts
      are still maintained exactly);
    * a slot group contains a sender audible to another sender of the
      same group.  Def. 1's 2-hop separation rules this out for every
      schedule the library builds; it is what lets the kernel fold a
      period's aggregation after the fact, because no sender's
      aggregate can change between its transmission and its group's
      delivery.
    """
    trace = sim.trace
    if (
        trace.wants(trace_kinds.SEND)
        or trace.wants(trace_kinds.DELIVER)
        or trace.wants(trace_kinds.DROP)
    ):
        return False
    metrics = sim.topology.metrics
    neighbour_ids = metrics.neighbour_ids
    index = metrics.index
    for _slot, _offset, senders in timeline:
        if len(senders) > 1:
            group = frozenset(senders)
            for node in senders:
                # A node is audible exactly at itself and its neighbours.
                if not group.isdisjoint(neighbour_ids[index[node]]):
                    return False
    return True


class _Layout:
    """One attachment epoch's period, in fire order.

    ``spans`` holds each transmitting sender's ``(sender, receivers)``
    and ``lanes_before`` counts the receiver lanes of the spans before
    each one (one entry more: the period's total); a receiver lane's
    *base number* counts lanes in that order, hear lanes left out.
    ``times`` holds each span's slot offset from the dissemination
    boundary, and ``group_starts`` the first span of each slot group.
    The lanes that aggregate are, in fire order, ``folds`` (``(sender
    index, receiver index)``) at base numbers ``fold_lanes``
    (ascending).  ``views`` memoises :meth:`view` per attacker location.
    """

    __slots__ = (
        "spans", "position", "lanes_before", "times", "group_starts",
        "folds", "fold_lanes", "views",
    )

    def __init__(
        self,
        timeline: Tuple[_SlotGroup, ...],
        fanouts: Mapping[NodeId, Tuple[NodeId, ...]],
        muted: Set[NodeId],
        parents: Mapping[NodeId, Optional[NodeId]],
        sink: NodeId,
        index: Mapping[NodeId, int],
    ) -> None:
        spans: List[Tuple[NodeId, Tuple[NodeId, ...]]] = []
        times: List[float] = []
        group_starts: List[int] = []
        folds: List[Tuple[int, int]] = []
        fold_lanes: List[int] = []
        lanes = 0
        for _slot, offset, senders in timeline:
            group_starts.append(len(spans))
            for node in senders:
                if node in muted:
                    continue  # on_slot() would stay silent
                receivers = fanouts[node]
                parent = parents[node]
                # The lanes that fold, in lane order: to the sender's
                # parent, and to the sink when it overhears (it
                # aggregates everything).
                for i, receiver in enumerate(receivers):
                    if receiver == parent or receiver == sink:
                        folds.append((index[node], index[receiver]))
                        fold_lanes.append(lanes + i)
                spans.append((node, receivers))
                times.append(offset)
                lanes += len(receivers)
        self.times = times
        self.group_starts = group_starts
        self.folds = folds
        self.fold_lanes = fold_lanes
        self.spans = spans
        self.position = {node: k for k, (node, _) in enumerate(spans)}
        self.lanes_before = [0]
        self.lanes_before.extend(accumulate(map(len, map(itemgetter(1), spans))))
        self.views: Dict[NodeId, Tuple[list, List[int], List[int]]] = {}

    def group_of(self, k: int) -> int:
        """The first span of span ``k``'s slot group."""
        return self.group_starts[bisect_right(self.group_starts, k) - 1]

    def view(
        self, location: NodeId, row: FrozenSet[NodeId]
    ) -> Tuple[list, List[int], List[int]]:
        """The period's spans as heard from ``location`` (``row``: the
        senders audible there): each audible span gains the hear lane.
        Returns the spans, the audible span indices ascending, and the
        lane number of each one's hear lane in the view."""
        view = self.views.get(location)
        if view is None:
            spans = list(self.spans)
            position = self.position
            audible = sorted(position[node] for node in row if node in position)
            hear_lanes = []
            for j, k in enumerate(audible):
                node, receivers = spans[k]
                spans[k] = (node, receivers + (_HEAR,))
                hear_lanes.append(self.lanes_before[k + 1] + j)
            view = self.views[location] = (spans, audible, hear_lanes)
        return view

    def fold(self, pending: List[int], lanes: int, lost: List[int]) -> None:
        """Fold the aggregating lanes among the first ``lanes`` base
        numbers into ``pending``, in fire order, skipping the ``lost``
        ones (base numbers, ascending)."""
        fold_lanes = self.fold_lanes
        folds = self.folds
        end = bisect_left(fold_lanes, lanes)
        done = 0
        for lane in lost:
            j = bisect_left(fold_lanes, lane, done, end)
            if j < end and fold_lanes[j] == lane:
                for source, target in folds[done:j]:
                    pending[target] |= pending[source]
                done = j + 1
        for source, target in folds[done:end]:
            pending[target] |= pending[source]


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
    block-drawn periods, applying the lowered perturbation ``steps`` at
    their period boundaries.  The caller must have checked
    :func:`fast_kernel_supported` and :func:`fast_lane_compilable`
    (with this ``timeline``, from :func:`build_slot_timeline`); see the
    module docstring for the stretches and the equivalence contract.
    ``parents`` is the compressed schedule's parent map (the sink maps
    to ``None``).

    The eavesdropper's hear path runs inline: its ``ARcv`` buffering
    happens without a call, and the rare ``Decide`` step (a move, an
    RNG tie-break, a capture test) delegates to the real agent so
    times, periods and paths stay bit-identical.  Message and trace
    totals are flushed onto the trace recorder on every exit path, so
    downstream accounting observes exactly what the legacy engine would
    have produced.
    """
    radio = sim.radio
    topology = radio.topology
    neighbours = topology.neighbours
    trace = sim.trace
    record = trace.record
    rng = sim.rng
    draw_block = radio.noise.draw_block
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

    if steps:
        # Attachment only matters to perturbations: the epoch and the
        # live fan-outs are read only after a toggle.
        for node in nodes:
            attach(node, _lane_delivered)
    # The run's reset clears the noise model's per-link state.
    radio.reset()
    transmitters = frozenset(n for _s, _o, group in timeline for n in group)
    # All attached: each fan-out is the topology's neighbour row.
    neighbour_ids = metrics.neighbour_ids
    fanouts = {node: neighbour_ids[index[node]] for node in transmitters}
    layout = _Layout(timeline, fanouts, muted, parents, sink, index)
    built_epoch = radio.epoch
    step_count = len(steps)
    next_step = 0
    if steps:
        from .perturbations import apply_step

    # The attacker's compiled hear/decide state: its Figure 1 machine,
    # the R/M caps, a per-sender slot memo (one `slot_lookup` call per
    # sender heard, instead of one per overheard broadcast), and the
    # audibility row of each location (memoised: audibility is
    # topology-derived and immutable for the run).
    astate = agent.state
    r_cap = astate.spec.r
    m_cap = astate.spec.m
    amsgs = astate.messages
    slot_memo: Dict[NodeId, int] = {}
    audible_rows: Dict[NodeId, FrozenSet[NodeId]] = {}

    def heard_view(location: NodeId) -> Tuple[list, List[int], List[int]]:
        # Audibility is symmetric (s is audible at l ⇔ l ∈ {s} ∪ N(s)
        # ⇔ s ∈ {l} ∪ N(l)), so the row is one set intersection.
        row = audible_rows.get(location)
        if row is None:
            row = radio.audible_set(location) & transmitters
            audible_rows[location] = row
        return layout.view(location, row)

    period_length = frame.period_length
    dissemination = frame.dissemination_duration
    sends = delivered = drops = hears = 0
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
                for node in stale & transmitters:
                    fanouts[node] = fanout(node)[1]
                layout = _Layout(timeline, fanouts, muted, parents, sink, index)
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
            base_spans = layout.spans
            count = len(base_spans)
            lanes_before = layout.lanes_before
            times = layout.times
            spans, audible, hear_lanes = heard_view(agent.location)
            #: the base numbers of every lost frame to a receiver, ascending.
            lost_lanes: List[int] = []
            start = 0
            while start < count:
                # The stretch runs to the first hear lane where Decide
                # could run, counting every earlier hear as delivered.
                first = bisect_left(audible, start)
                stop = count
                if astate.moves < m_cap:
                    at = first + max(r_cap - len(amsgs), 1) - 1
                    if at < len(audible):
                        stop = audible[at] + 1
                missed = ()
                lost = draw_block(spans[start:stop], rng)
                if lost:
                    # A view lane numbers a receiver lane by its base
                    # number plus the hear lanes before it.
                    missed = []
                    first_lane = lanes_before[start] + first
                    for lane in lost:
                        lane += first_lane
                        before = bisect_left(hear_lanes, lane)
                        if before < len(hear_lanes) and hear_lanes[before] == lane:
                            missed.append(audible[before])
                        else:
                            lost_lanes.append(lane - before)
                for k in audible[first : bisect_left(audible, stop)]:
                    if k in missed:
                        continue
                    node = base_spans[k][0]
                    slot_time = slot_base + times[k]
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
                        # Positional: the record's fast path, no keyword binding.
                        amsgs.append(HeardMessage(node, slot_of, slot_time))
                    if len(amsgs) >= r_cap and astate.moves < m_cap:
                        location = astate.location
                        agent._decide(slot_time)
                        if agent.captured:
                            # A capture ends the run after the hear that
                            # caused it: later senders never transmit
                            # and the slot group's deliveries never
                            # fire, as the legacy loop stops with those
                            # events queued.
                            done = lanes_before[layout.group_of(k)]
                            early = bisect_left(lost_lanes, done)
                            sends += k + 1
                            drops += len(lost_lanes)
                            delivered += done - early
                            layout.fold(pending, done, lost_lanes[:early])
                            return current_period, collected
                        if astate.location != location:
                            spans, audible, hear_lanes = heard_view(astate.location)
                start = stop
            sends += count
            drops += len(lost_lanes)
            delivered += lanes_before[count] - len(lost_lanes)
            layout.fold(pending, lanes_before[count], lost_lanes)
        return current_period, collected
    finally:
        trace.bump_many(trace_kinds.SEND, sends)
        trace.bump_many(trace_kinds.DELIVER, delivered)
        trace.bump_many(trace_kinds.DROP, drops)
        trace.bump_many(trace_kinds.ATTACKER_HEAR, hears)
        # The sink's take of the period the run ended in.
        collected[current_period] = pending[sink_idx].bit_count()
        if period_span is not None:
            tracer.end(period_span)
