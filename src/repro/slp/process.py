"""The Figure 3/4 node process: Phases 2 and 3 on the legacy engine.

:class:`SlpNodeProcess` extends the Phase 1 process of Figure 2 with the
``NSearch`` actions of Figure 3 and the ``SRefine`` actions of Figure 4,
inheriting all Phase 1 variables exactly as the paper specifies
("the algorithm inherits the variables of the Algorithm in Figure 2").
Like :mod:`repro.das.process`, it loads only when a run asks for the
legacy setup engine; the default engine runs the same actions on the
fast kernel's arrays.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Set

from ..das.fast_setup import search_ttl, unassigned_decoy_error
from ..das.messages import NodeInfo
from ..das.process import DasNodeProcess
from ..errors import ProtocolError
from ..simulator import PHASE, SEND
from ..topology import NodeId
from .messages import ChangeMessage, SearchMessage

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .distributed import SlpProtocolConfig


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
