"""Distributed Phase 1 — the DAS slot assignment protocol of Figure 2.

Each node runs a :class:`DasNodeProcess`:

* **Neighbour discovery** — for the first ``NDP`` dissemination periods
  nodes broadcast ``HELLO`` beacons and learn ``myN`` (Table I).
* **Dissemination** — every period each node broadcasts a ``DISSEM``
  message carrying its ``Ninfo`` neighbourhood view, giving receivers
  2-hop knowledge (Figure 2's ``dissem`` action).
* **Assignment** — an unassigned node that has heard assigned
  neighbours picks the minimum-hop one heard earliest as parent and
  takes a slot *below the minimum slot it has seen*, offset by its rank
  among the parent's unassigned children (the ``process`` action).
* **Self-repair** — nodes that detect a 2-hop slot collision or an
  ordering violation against a toward-sink neighbour decrement their
  slot (Figure 2's collision resolution), flagging ``Normal = 0`` so
  children re-check theirs (the ``receiveU`` action).  Slot values only
  ever decrease, which makes the gossip monotone and convergent.

The protocol is fully distributed: processes learn everything from
messages; the only global inputs are the constants of Table I.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

from ..core import Schedule
from ..errors import ProtocolError
from ..simulator import (
    IdealNoise,
    NoiseModel,
    Process,
    Simulator,
    SLOT_ASSIGNED,
    SLOT_CHANGED,
)
from ..topology import NodeId, Topology
from .fast_setup import (
    fast_setup_compilable,
    fast_setup_supported,
    run_fast_setup,
)
from .kernels import resolve_setup_kernel
from .messages import DissemMessage, HelloMessage, NodeInfo


@dataclass(frozen=True)
class DasProtocolConfig:
    """Phase 1 parameters (the protectionless-DAS rows of Table I).

    Attributes
    ----------
    dissemination_period:
        The paper's ``Pdiss`` / timer ``α`` — one protocol round, seconds.
    num_slots:
        The sink's initial slot ``Δ`` (Figure 2's ``size`` constant;
        Table I ``slots``).
    neighbour_discovery_periods:
        ``NDP`` — rounds of HELLO beaconing before dissemination.
    setup_periods:
        ``MSP`` — total setup rounds before the source activates.
    jitter_fraction:
        Broadcasts occur uniformly inside ``[0, jitter_fraction × α)`` of
        each round, reproducing TOSSIM's CSMA arrival-order variance.
    dissemination_timeout:
        ``DT`` — a node stops re-broadcasting after this many consecutive
        disseminations with no local state change (message economy; a
        change re-arms the counter).
    """

    dissemination_period: float = 0.5
    num_slots: int = 100
    neighbour_discovery_periods: int = 4
    setup_periods: int = 80
    jitter_fraction: float = 0.8
    dissemination_timeout: int = 5

    def __post_init__(self) -> None:
        if self.dissemination_period <= 0:
            raise ProtocolError("dissemination period must be positive")
        if self.num_slots < 1:
            raise ProtocolError("num_slots must be positive")
        if self.neighbour_discovery_periods < 1:
            raise ProtocolError("at least one neighbour discovery period is needed")
        if self.setup_periods <= self.neighbour_discovery_periods:
            raise ProtocolError(
                "setup must include dissemination periods after neighbour discovery"
            )
        if not 0.0 < self.jitter_fraction <= 1.0:
            raise ProtocolError("jitter fraction must lie in (0, 1]")
        if self.dissemination_timeout < 1:
            raise ProtocolError("dissemination timeout must be at least 1")


class DasNodeProcess(Process):
    """One node's Figure 2 state machine."""

    #: Timer names.
    ROUND = "round"
    TX = "tx"

    def __init__(
        self,
        node: NodeId,
        is_sink: bool,
        config: DasProtocolConfig,
    ) -> None:
        super().__init__(node)
        self._is_sink = is_sink
        self._config = config

        # Figure 2 variables.
        self.my_neighbours: Set[NodeId] = set()
        self.potential_parents: List[NodeId] = []  # Npar, in arrival order
        self.children: Set[NodeId] = set()
        self.others: Dict[NodeId, tuple] = {}  # Others[j]
        self.ninfo: Dict[NodeId, NodeInfo] = {}
        self.hop: Optional[int] = None
        self.parent: Optional[NodeId] = None
        self.slot: Optional[int] = None
        self.normal: bool = True

        self._round = 0
        self._quiet_rounds = 0  # rounds without state change, for DT
        # Weak-repair mode: once Phase 3 refinement touches the
        # neighbourhood (a CHANGE or update message is heard), enforcing
        # the *strong* ordering rule would fight the decoy gradient, so
        # the node falls back to Def. 3's parent-only obligation.
        self._weak_mode = False

    # ------------------------------------------------------------------
    # Introspection used by the harness
    # ------------------------------------------------------------------
    @property
    def is_sink(self) -> bool:
        """Whether this process runs on the sink."""
        return self._is_sink

    @property
    def assigned(self) -> bool:
        """Whether the node has chosen a slot."""
        return self.slot is not None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._is_sink:
            # Figure 2 `init`: the sink triggers the protocol.
            self.hop = 0
            self.parent = None
            self.slot = self._config.num_slots
            self.ninfo[self.node] = NodeInfo(hop=0, slot=self.slot)
            self.sim.trace.record(
                self.sim.now, SLOT_ASSIGNED, node=self.node, slot=self.slot
            )
        self._schedule_round()

    def _schedule_round(self) -> None:
        self.set_timer(self.ROUND, 0.0)

    def on_timer(self, name: str, time: float) -> None:
        if name == self.ROUND:
            self._begin_round()
        elif name == self.TX:
            self._transmit()

    def _total_rounds(self) -> int:
        """How many protocol rounds this process runs in total.

        Phase 1 alone stops after ``setup_periods``; the SLP process
        extends this to cover the Phase 2/3 rounds.
        """
        return self._config.setup_periods

    def _begin_round(self) -> None:
        cfg = self._config
        if self._round >= self._total_rounds():
            return
        # Evaluate guarded actions on the state gathered last round.
        if self._round >= cfg.neighbour_discovery_periods:
            self._process_action()
        # Jittered broadcast inside this round.
        offset = self.sim.rng.uniform(
            0.0, cfg.jitter_fraction * cfg.dissemination_period
        )
        self.set_timer(self.TX, offset)
        self._round += 1
        self.set_timer(self.ROUND, cfg.dissemination_period)

    def _transmit(self) -> None:
        cfg = self._config
        if self._round <= cfg.neighbour_discovery_periods:
            self.broadcast(HelloMessage(sender=self.node))
            return
        # Dissemination economy (Table I's DT): a node that has seen no
        # state change for DT rounds keeps quiet until something changes.
        if self._quiet_rounds >= cfg.dissemination_timeout and self.normal:
            return
        self._quiet_rounds += 1
        snapshot = {self.node: self.ninfo.get(self.node, NodeInfo())}
        for n in self.my_neighbours:
            snapshot[n] = self.ninfo.get(n, NodeInfo())
        message = DissemMessage(
            normal=self.normal,
            sender=self.node,
            ninfo=snapshot,
            parent=self.parent,
        )
        self.broadcast(message)
        # The update has been announced; return to normal dissemination.
        self.normal = True

    # ------------------------------------------------------------------
    # Receive actions
    # ------------------------------------------------------------------
    def on_receive(self, sender: NodeId, message: object, time: float) -> None:
        if isinstance(message, HelloMessage):
            self.my_neighbours.add(message.sender)
            self.ninfo.setdefault(message.sender, NodeInfo())
            return
        if isinstance(message, DissemMessage):
            self._receive_dissem(message)

    def _merge_entry(self, node: NodeId, info: NodeInfo) -> bool:
        """Figure 2's ``Ninfo[n] := N[n]`` with a monotonicity guard.

        Slots only ever decrease in this protocol (assignment picks below
        the minimum seen; repairs decrement), so the entry with the
        smaller slot is always the fresher one.  Accepting only
        fresher-or-filling entries prevents stale gossip from resurrecting
        an old slot value after a repair.  Returns whether the local view
        changed — new knowledge must be re-disseminated so that 2-hop
        neighbours eventually see it.
        """
        if node == self.node:
            return False  # own entry is authoritative
        current = self.ninfo.get(node)
        if current is None or (not current.assigned and info.assigned):
            self.ninfo[node] = info
            return True
        if info.assigned and current.assigned and info.slot < current.slot:
            self.ninfo[node] = info
            return True
        return False

    def _receive_dissem(self, message: DissemMessage) -> None:
        sender = message.sender
        self.my_neighbours.add(sender)
        sender_info = message.entry(sender)
        learned = self._merge_entry(sender, sender_info)
        for n, info in message.ninfo.items():
            if info.hop is not None or info.slot is not None:
                learned = self._merge_entry(n, info) or learned
        if learned:
            # Fresh knowledge must keep flowing for 2-hop collision
            # detection; re-arm the dissemination economy counter.
            self._quiet_rounds = 0

        if not message.normal:
            # An update message means refinement reached this
            # neighbourhood: drop to weak-mode repair from here on.
            self._weak_mode = True
            # Figure 2 `receiveU`: update from our parent — repair our
            # slot below the parent's new one and cascade.
            if (
                self.parent == sender
                and self.slot is not None
                and sender_info.assigned
                and self.slot >= sender_info.slot
            ):
                self._change_slot(sender_info.slot - 1, reason="parent-update")
            return

        # Figure 2 `receiveN`: track potential parents while unassigned.
        if self.slot is None and sender_info.assigned:
            if sender not in self.potential_parents:
                self.potential_parents.append(sender)
            self.others[sender] = message.unassigned_neighbours()
        # Children discovery: a neighbour announcing us as its parent is
        # one of our children (the sink needs this to seed Phase 2).
        if message.parent == self.node:
            self.children.add(sender)

    # ------------------------------------------------------------------
    # The `process` guarded action
    # ------------------------------------------------------------------
    def _process_action(self) -> None:
        if self.slot is None:
            self._try_assign()
        if self.slot is not None:
            self._resolve_violations()

    def _try_assign(self) -> None:
        candidates = [
            j
            for j in self.potential_parents
            if self.ninfo.get(j, NodeInfo()).assigned
            and self.ninfo[j].hop is not None
        ]
        if not candidates:
            return
        # Parent: minimum hop, earliest heard among equals (list order).
        parent = min(
            candidates,
            key=lambda j: (self.ninfo[j].hop, self.potential_parents.index(j)),
        )
        self.parent = parent
        self.hop = self.ninfo[parent].hop + 1

        # Rank among the parent's unassigned children, from the Others
        # set the parent itself announced — all siblings that heard the
        # same broadcast compute consistent, distinct ranks.
        others = set(self.others.get(parent, ()))
        others.add(self.node)
        rank = sorted(others).index(self.node)

        # "updates its slot to be less than the minimum of all slots seen"
        seen = [
            info.slot
            for n, info in self.ninfo.items()
            if n != self.node and info.assigned
        ]
        min_seen = min(seen)
        self.slot = min_seen - rank - 1
        self.children = {
            n
            for n in self.my_neighbours
            if not self.ninfo.get(n, NodeInfo()).assigned
        }
        self.ninfo[self.node] = NodeInfo(hop=self.hop, slot=self.slot)
        self._quiet_rounds = 0
        self.sim.trace.record(
            self.sim.now,
            SLOT_ASSIGNED,
            node=self.node,
            slot=self.slot,
            parent=parent,
            hop=self.hop,
        )

    def _resolve_violations(self) -> None:
        assert self.slot is not None and self.hop is not None
        if self._weak_mode:
            # Def. 3 obligation only: stay strictly below the chosen
            # parent so the aggregation tree keeps working.
            if self.parent is not None:
                pinfo = self.ninfo.get(self.parent)
                if (
                    pinfo is not None
                    and pinfo.assigned
                    and self.slot >= pinfo.slot
                ):
                    self._change_slot(pinfo.slot - 1, reason="parent-ordering")
        else:
            # Ordering against toward-sink neighbours (strong DAS
            # condition 3): every 1-hop neighbour closer to the sink must
            # transmit later.
            for n in self.my_neighbours:
                info = self.ninfo.get(n)
                if info is None or not info.assigned or info.hop is None:
                    continue
                if info.hop == 0:
                    continue  # the neighbour is the sink; Def. 2 allows m = S
                if info.hop == self.hop - 1 and self.slot >= info.slot:
                    self._change_slot(info.slot - 1, reason="ordering")
        # Figure 2 collision resolution over 2-hop knowledge.
        for n, info in self.ninfo.items():
            if n == self.node or not info.assigned or info.hop is None:
                continue
            if info.slot == self.slot:
                if (self.hop, self.node) > (info.hop, n):
                    self._change_slot(self.slot - 1, reason="collision")

    def _change_slot(self, new_slot: int, reason: str) -> None:
        if self.slot == new_slot:
            return
        old = self.slot
        self.slot = new_slot
        self.ninfo[self.node] = NodeInfo(hop=self.hop, slot=new_slot)
        self.normal = False  # children must re-check (update dissemination)
        self._quiet_rounds = 0
        self.sim.trace.record(
            self.sim.now,
            SLOT_CHANGED,
            node=self.node,
            old=old,
            new=new_slot,
            reason=reason,
        )


@dataclass
class DasSetupResult:
    """Outcome of a full Phase 1 run.

    Attributes
    ----------
    schedule:
        The converged slot assignment (shifted so the minimum slot is 1).
    simulator:
        The engine the protocol ran in (trace carries message counts).
    messages_sent:
        Total broadcasts during setup — the overhead baseline.
    rounds:
        Setup rounds executed.
    """

    schedule: Schedule
    simulator: Simulator
    messages_sent: int
    rounds: int


def unassigned_error(unassigned) -> ProtocolError:
    """The error for a Phase 1 that left ``unassigned`` nodes slotless."""
    return ProtocolError(
        f"{len(unassigned)} nodes never obtained a slot during setup "
        f"(first few: {sorted(unassigned)[:5]})"
    )


def run_das_setup(
    topology: Topology,
    config: Optional[DasProtocolConfig] = None,
    seed: Optional[int] = None,
    noise: Optional[NoiseModel] = None,
    process_factory: Optional[Callable[..., DasNodeProcess]] = None,
    setup_kernel: Optional[str] = None,
) -> DasSetupResult:
    """Run distributed Phase 1 on ``topology`` and extract the schedule.

    Raises :class:`~repro.errors.ProtocolError` when some node failed to
    obtain a slot within ``setup_periods`` rounds (e.g. under extreme
    loss); callers wanting partial results can inspect the simulator's
    processes directly.

    ``setup_kernel`` picks the engine: ``"fast"`` (the flat-round setup
    kernel of :mod:`repro.das.fast_setup`, the default) or ``"legacy"``
    (the event-heap engine).  Both are bit-identical — same RNG stream,
    same schedule, same traces — so the knob exists for bisection.  The
    fast kernel engages only when every process is exactly
    :class:`DasNodeProcess` (``process_factory`` lets harnesses inject
    subclasses, which fall back to the heap automatically) and the
    round geometry lets it preserve heap event order.
    """
    cfg = config if config is not None else DasProtocolConfig()
    kernel = resolve_setup_kernel(setup_kernel, "run_das_setup")
    sim = Simulator(
        topology,
        noise=noise if noise is not None else IdealNoise(),
        seed=seed,
        trace_kinds=frozenset({SLOT_ASSIGNED, SLOT_CHANGED}),
    )
    factory = process_factory if process_factory is not None else DasNodeProcess
    processes: Dict[NodeId, DasNodeProcess] = {}
    for node in topology.nodes:
        proc = factory(node, is_sink=(node == topology.sink), config=cfg)
        processes[node] = proc
        sim.register_process(proc)

    use_fast = (
        kernel == "fast"
        and fast_setup_compilable(processes, DasNodeProcess)
        and fast_setup_supported(cfg, sim.radio.propagation_delay)
    )
    if use_fast:
        state = run_fast_setup(sim, topology, cfg)
        state.sync(processes, cfg.setup_periods)
    else:
        sim.run(until=cfg.setup_periods * cfg.dissemination_period + 1e-9)

    unassigned = [n for n, p in processes.items() if not p.assigned]
    if unassigned:
        raise unassigned_error(unassigned)

    raw_slots = {n: p.slot for n, p in processes.items()}
    parents = {n: p.parent for n, p in processes.items()}
    min_slot = min(raw_slots.values())
    if min_slot < 1:
        shift = 1 - min_slot
        raw_slots = {n: s + shift for n, s in raw_slots.items()}
    schedule = Schedule(raw_slots, parents, topology.sink)
    from ..simulator import SEND  # local import to avoid a cycle at module load

    return DasSetupResult(
        schedule=schedule,
        simulator=sim,
        messages_sent=sim.trace.count(SEND),
        rounds=cfg.setup_periods,
    )
