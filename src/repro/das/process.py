"""The Figure 2 node process, and the legacy setup engine that runs it.

Each node runs a :class:`DasNodeProcess` on the simulator's event heap:

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

The processes learn everything from messages; the only global inputs
are the constants of Table I.  The default setup engine
(:mod:`repro.das.fast_setup`) runs the same protocol on flat arrays and
builds no process at all, so this module, the wire messages and the
event heap load only when a run asks for the legacy engine
(``setup_kernel="legacy"``, the oracle).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set

from ..simulator import SLOT_ASSIGNED, SLOT_CHANGED, Process, Simulator
from ..topology import NodeId
from .messages import DissemMessage, HelloMessage, NodeInfo

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .protocol import DasProtocolConfig


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


def run_process_engine(
    sim: Simulator,
    factory: Callable[..., DasNodeProcess],
    config: object,
    rounds: int,
    period: float,
) -> Dict[NodeId, DasNodeProcess]:
    """The legacy setup engine: register one ``factory(node, is_sink,
    config)`` process per node and drive ``rounds`` dissemination rounds
    of ``period`` seconds on the event heap.  Returns the processes by
    node, in topology order."""
    topology = sim.topology
    processes: Dict[NodeId, DasNodeProcess] = {}
    for node in topology.nodes:
        proc = factory(node, is_sink=(node == topology.sink), config=config)
        processes[node] = proc
        sim.register_process(proc)
    sim.run(until=rounds * period + 1e-9)
    return processes
