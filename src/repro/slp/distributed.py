"""Distributed Phases 2 and 3 — the full SLP DAS node process.

:class:`SlpNodeProcess` extends the Phase 1 process of Figure 2 with the
``NSearch`` actions of Figure 3 and the ``SRefine`` actions of Figure 4,
inheriting all Phase 1 variables exactly as the paper specifies
("the algorithm inherits the variables of the Algorithm in Figure 2").

Timeline (in dissemination rounds):

* rounds ``0 … MSP-1`` — Phase 1 (neighbour discovery + DAS assignment);
* round ``MSP`` — the sink fires ``startS``, sending a ``SEARCH`` toward
  its minimum-slot child (Phase 2);
* the search hops node-to-node inside the same round structure; the
  selected start node fires ``startR`` immediately, recruiting the decoy
  path with ``CHANGE`` messages (Phase 3);
* remaining rounds — update disseminations (``Normal = 0``) cascade the
  ``receiveU`` repairs so the schedule settles back into a weak DAS.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

from ..core import Schedule
from ..das.fast_setup import (
    fast_setup_compilable,
    fast_setup_supported,
    run_fast_setup,
    search_ttl,
    unassigned_decoy_error,
)
from ..das.messages import NodeInfo
from ..das.protocol import (
    DasNodeProcess,
    DasProtocolConfig,
    resolve_setup_kernel,
)
from ..errors import ProtocolError
from ..simulator import (
    IdealNoise,
    NoiseModel,
    PHASE,
    SEND,
    SLOT_ASSIGNED,
    SLOT_CHANGED,
    Simulator,
)
from ..topology import NodeId, Topology
from .messages import ChangeMessage, SearchMessage


@dataclass(frozen=True)
class SlpProtocolConfig:
    """Parameters of the full 3-phase SLP DAS protocol (Table I).

    Attributes
    ----------
    das:
        The inherited Phase 1 parameters.
    search_distance:
        ``SD`` — hops the search travels (Table I: 3 or 5).
    change_length:
        ``CL`` — decoy path length budget (Table I: ``Δss − SD``; the
        harness computes the default from the topology).
    refinement_periods:
        Extra dissemination rounds after ``MSP`` for the search, change
        and update cascade to settle.  Deep cascades on the paper's
        grids need ~20 rounds of self-stabilising repair.
    """

    das: DasProtocolConfig = field(default_factory=DasProtocolConfig)
    search_distance: int = 3
    change_length: int = 5
    refinement_periods: int = 20

    def __post_init__(self) -> None:
        if self.search_distance < 1:
            raise ProtocolError("search distance must be at least 1")
        if self.change_length < 1:
            raise ProtocolError("change length must be at least 1")
        if self.refinement_periods < 2:
            raise ProtocolError("refinement needs at least 2 rounds to settle")


class SlpNodeProcess(DasNodeProcess):
    """Figure 2 + Figure 3 + Figure 4, in one node process."""

    def __init__(
        self,
        node: NodeId,
        is_sink: bool,
        config: SlpProtocolConfig,
    ) -> None:
        super().__init__(node, is_sink, config.das)
        self._slp = config
        # Figure 3 / Figure 4 variables.
        self.from_set: Set[NodeId] = set()
        self.is_start_node = False
        self.is_decoy = False
        self.search_forwarded = False
        self.redirect_length = 0  # pr
        # Wire-message counters, bumped at each SEARCH/CHANGE broadcast
        # so the harness can report Phase 2/3 overhead without retaining
        # per-message SEND trace records.
        self.search_sent = 0
        self.change_sent = 0
        # The Phase 1 -> Phase 2 boundary, recorded as round MSP begins:
        # up to here the run is a protectionless run of the same seed.
        self.unassigned_after_phase1 = False
        self.phase1_sends: Optional[int] = None  # sink only: SENDs before startS

    # ------------------------------------------------------------------
    # Round structure
    # ------------------------------------------------------------------
    def _total_rounds(self) -> int:
        return self._slp.das.setup_periods + self._slp.refinement_periods

    def _begin_round(self) -> None:
        phase1_over = self._round == self._slp.das.setup_periods
        if phase1_over:
            # Before this node's own round-MSP guarded action: slots are
            # only ever taken there, so this is the node's slot state at
            # the end of Phase 1 whatever lower ids did at this instant.
            self.unassigned_after_phase1 = self.slot is None
        super()._begin_round()
        if self._is_sink and phase1_over:
            # Lower ids' round-MSP events only arm timers, so every
            # SEND so far is a Phase 1 broadcast.
            self.phase1_sends = self.sim.trace.count(SEND)
            self._start_search()

    # ------------------------------------------------------------------
    # Phase 2: NSearch (Figure 3)
    # ------------------------------------------------------------------
    def _min_slot_child(self) -> Optional[NodeId]:
        """The child with the minimum known slot (Figure 3's selection)."""
        assigned = [
            c
            for c in self.children
            if self.ninfo.get(c, NodeInfo()).assigned
        ]
        if not assigned:
            return None
        return min(assigned, key=lambda c: (self.ninfo[c].slot, c))

    def _start_search(self) -> None:
        """Figure 3 ``startS``: the sink seeds the search."""
        target = self._min_slot_child()
        if target is None:
            raise ProtocolError("the sink has no assigned children to search via")
        self.sim.trace.record(
            self.sim.now, PHASE, phase="search-start", node=self.node, target=target
        )
        self.search_sent += 1
        self.broadcast(
            SearchMessage(
                sender=self.node,
                target=target,
                distance=self._slp.search_distance,
                ttl=search_ttl(self._slp.search_distance),
            )
        )

    def _spare_parent_candidates(self, exclude: NodeId) -> List[NodeId]:
        """``Npar \\ {par, k} \\ from`` — spare potential parents."""
        return [
            j
            for j in self.potential_parents
            if j != self.parent and j != exclude and j not in self.from_set
        ]

    def _forward_search(self, distance: int, ttl: int) -> None:
        """Forward the search one hop (the ``d > 0`` and fallback branches).

        Figure 3 forwards to the minimum-slot child while ``d > 0`` and
        lets ``choose()`` pick any child or non-parent neighbour at
        ``d = 0``.  ``choose`` is nondeterministic in the paper; here it
        prefers nodes not yet on the search path and otherwise picks at
        random — randomness is what lets a search that walked into a
        dead-end corner escape instead of ping-ponging until its TTL.
        """
        if ttl <= 0:
            return  # hop budget exhausted; the search dies here
        child = self._min_slot_child()
        if distance > 0 and child is not None and child not in self.from_set:
            target = child
        else:
            fresh = [
                n
                for n in sorted(self.my_neighbours)
                if n != self.parent and n not in self.from_set
            ]
            if fresh:
                target = fresh[0] if distance > 0 else self.sim.rng.choice(fresh)
            else:
                revisit = [
                    n for n in sorted(self.my_neighbours) if n != self.parent
                ]
                if not revisit:
                    return  # isolated leaf: nowhere to go at all
                target = self.sim.rng.choice(revisit)
        self.search_forwarded = True
        self.search_sent += 1
        self.broadcast(
            SearchMessage(
                sender=self.node, target=target, distance=distance, ttl=ttl - 1
            )
        )

    def _receive_search(self, message: SearchMessage) -> None:
        # Everyone in range records the forwarder (Figure 3's
        # ``from := from ∪ {k}``) and drops to weak-mode repair, since a
        # redirection is being built nearby.
        self.from_set.add(message.sender)
        self._weak_mode = True
        if message.target != self.node:
            return
        if message.distance > 0:
            self._forward_search(message.distance - 1, message.ttl)
            return
        # d = 0: can this node host the redirection?
        spares = self._spare_parent_candidates(exclude=message.sender)
        if spares:
            self.is_start_node = True
            self.redirect_length = self._slp.change_length
            self.sim.trace.record(
                self.sim.now, PHASE, phase="start-node", node=self.node
            )
            self._start_refinement(spares)
        else:
            # Wander on at d = 0 until a suitable node is found.
            self._forward_search(0, message.ttl)

    # ------------------------------------------------------------------
    # Phase 3: SRefine (Figure 4)
    # ------------------------------------------------------------------
    def _neighbourhood_min_slot(self) -> int:
        """``min({Ninfo[k].slot | k ∈ myN} ∪ {slot})``."""
        values = [self.slot] if self.slot is not None else []
        for n in self.my_neighbours:
            info = self.ninfo.get(n)
            if info is not None and info.assigned:
                values.append(info.slot)
        if not values:
            raise ProtocolError(f"node {self.node} has no slot knowledge to refine")
        return min(values)

    def _start_refinement(self, spares: List[NodeId]) -> None:
        """Figure 4 ``startR``: recruit the first decoy node."""
        target = self.sim.rng.choice(sorted(spares))
        base = self._neighbourhood_min_slot()
        self.change_sent += 1
        self.broadcast(
            ChangeMessage(
                sender=self.node,
                target=target,
                base_slot=base,
                remaining=self.redirect_length - 1,
            )
        )

    def _receive_change(self, message: ChangeMessage) -> None:
        # Any node hearing a CHANGE is adjacent to the decoy path: the
        # strong ordering rule must not fight the planted gradient.
        self._weak_mode = True
        self.from_set.add(message.sender)
        if message.target != self.node:
            return
        candidates = [
            n
            for n in sorted(self.my_neighbours)
            if n != self.parent and n not in self.from_set
        ]
        if candidates and self.slot is None:
            raise unassigned_decoy_error(self.node)
        if message.remaining > 0 and candidates:
            self.is_decoy = True
            self._change_slot(message.base_slot - 1, reason="decoy")
            base = self._neighbourhood_min_slot()
            target = self.sim.rng.choice(candidates)
            self.change_sent += 1
            self.broadcast(
                ChangeMessage(
                    sender=self.node,
                    target=target,
                    base_slot=base,
                    remaining=message.remaining - 1,
                )
            )
        elif message.remaining == 0 and candidates:
            # Final decoy node: adopt the slot and open the update phase.
            self.is_decoy = True
            self._change_slot(message.base_slot - 1, reason="decoy")

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def on_receive(self, sender: NodeId, message: object, time: float) -> None:
        if isinstance(message, SearchMessage):
            self._receive_search(message)
            return
        if isinstance(message, ChangeMessage):
            self._receive_change(message)
            return
        super().on_receive(sender, message, time)


@dataclass
class SlpSetupResult:
    """Outcome of a full 3-phase distributed run.

    Attributes
    ----------
    schedule:
        The refined weak-DAS schedule.
    simulator:
        The engine (trace carries per-kind counts).
    messages_sent:
        Total broadcasts across all three phases.
    search_messages, change_messages:
        Phase 2 / Phase 3 wire messages actually sent — the paper's
        "negligible overhead" quantities.
    start_node:
        The Phase 2 selected node, if one emerged.
    decoy_path:
        Nodes recruited onto the decoy path.
    phase1_messages:
        Broadcasts sent before the sink's ``startS`` (round ``MSP``).
        Phase 1 of an SLP run is a protectionless run of the same seed,
        so this equals ``run_das_setup(...).messages_sent``.
    phase1_unassigned:
        Ids (ascending) still without a slot when Phase 1 ended — the
        nodes ``run_das_setup`` of the same seed would report.
    """

    schedule: Schedule
    simulator: Simulator
    messages_sent: int
    search_messages: int
    change_messages: int
    start_node: Optional[NodeId]
    decoy_path: tuple
    phase1_messages: int
    phase1_unassigned: tuple


def run_slp_setup(
    topology: Topology,
    config: Optional[SlpProtocolConfig] = None,
    seed: Optional[int] = None,
    noise: Optional[NoiseModel] = None,
    process_factory: Optional[Callable[..., SlpNodeProcess]] = None,
    setup_kernel: Optional[str] = None,
) -> SlpSetupResult:
    """Run the complete 3-phase distributed SLP DAS protocol.

    The default ``change_length`` is recomputed from the topology as
    ``max(1, Δss − SD)`` (Table I) when the caller passes no config.

    ``setup_kernel`` selects the engine exactly as in
    :func:`~repro.das.run_das_setup`: ``"fast"`` (the flat-round setup
    kernel, the default) or ``"legacy"`` (the event heap), bit-identical
    either way.  Subclasses injected via ``process_factory`` — and
    search/refinement chain geometries the kernel cannot prove safe —
    fall back to the heap automatically.
    """
    if config is None:
        sd = 3
        cl = max(1, topology.source_sink_distance() - sd)
        config = SlpProtocolConfig(search_distance=sd, change_length=cl)
    kernel = resolve_setup_kernel(setup_kernel, "run_slp_setup")

    sim = Simulator(
        topology,
        noise=noise if noise is not None else IdealNoise(),
        seed=seed,
        trace_kinds=frozenset({SLOT_ASSIGNED, SLOT_CHANGED, PHASE}),
    )
    factory = process_factory if process_factory is not None else SlpNodeProcess
    processes: Dict[NodeId, SlpNodeProcess] = {}
    for node in topology.nodes:
        proc = factory(node, is_sink=(node == topology.sink), config=config)
        processes[node] = proc
        sim.register_process(proc)

    total = config.das.setup_periods + config.refinement_periods
    use_fast = (
        kernel == "fast"
        and fast_setup_compilable(processes, SlpNodeProcess)
        and fast_setup_supported(
            config.das,
            sim.radio.propagation_delay,
            search_distance=config.search_distance,
            change_length=config.change_length,
        )
    )
    if use_fast:
        state = run_fast_setup(
            sim,
            topology,
            config.das,
            search_distance=config.search_distance,
            change_length=config.change_length,
            total_rounds=total,
        )
        state.sync(processes, total)
    else:
        sim.run(until=total * config.das.dissemination_period + 1e-9)

    unassigned = [n for n, p in processes.items() if not p.assigned]
    if unassigned:
        raise ProtocolError(
            f"{len(unassigned)} nodes never obtained a slot during SLP setup"
        )

    raw_slots = {n: p.slot for n, p in processes.items()}
    parents = {n: p.parent for n, p in processes.items()}
    min_slot = min(raw_slots.values())
    if min_slot < 1:
        shift = 1 - min_slot
        raw_slots = {n: s + shift for n, s in raw_slots.items()}
    schedule = Schedule(raw_slots, parents, topology.sink)

    search_count = sum(p.search_sent for p in processes.values())
    change_count = sum(p.change_sent for p in processes.values())

    start_nodes = [n for n, p in processes.items() if p.is_start_node]
    decoys = tuple(
        sorted(
            (n for n, p in processes.items() if p.is_decoy),
            key=lambda n: raw_slots[n],
            reverse=True,
        )
    )
    return SlpSetupResult(
        schedule=schedule,
        simulator=sim,
        messages_sent=sim.trace.count(SEND),
        search_messages=search_count,
        change_messages=change_count,
        start_node=start_nodes[0] if start_nodes else None,
        decoy_path=decoys,
        phase1_messages=processes[topology.sink].phase1_sends,
        phase1_unassigned=tuple(
            sorted(n for n, p in processes.items() if p.unassigned_after_phase1)
        ),
    )
