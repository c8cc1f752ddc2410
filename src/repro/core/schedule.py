"""TDMA slot assignments and their sender-set view.

The paper treats a data aggregation schedule in two equivalent ways:

* as a *slot assignment* ``F`` mapping each node to the TDMA slot in
  which it transmits (this is what the distributed protocols manipulate —
  each node stores its own ``slot`` variable), and
* as a *sequence of sender sets* ``⟨σ1, σ2, …, σl⟩`` where ``σi`` is the
  set of nodes transmitting in slot ``i`` (this is what Definitions 2–3
  quantify over).

:class:`Schedule` stores the assignment form — one slot per node, plus
the aggregation-tree parent each node chose — and derives the sender-set
form on demand.  The sink owns the highest slot (``Δ`` in Figure 2) but
never appears in a sender set, matching Def. 2 condition 2
(``⋃ σi = V \\ {S}``): the sink collects, it does not forward.

Slots *decrease* away from the sink, so ascending slot order is
leaves-first convergecast order.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Set, Tuple

from ..errors import ScheduleError
from ..topology import NodeId, Topology


class Schedule:
    """An immutable TDMA slot assignment with aggregation-tree parents.

    Parameters
    ----------
    slots:
        Mapping of every scheduled node (including the sink) to its slot
        number.  Slot numbers are positive integers; larger numbers
        transmit later within a period.
    parents:
        Mapping of node to its chosen aggregation parent.  The sink has
        no parent (maps to ``None`` or is absent).
    sink:
        The sink node.  It must carry a slot (Figure 2 assigns it ``Δ``)
        strictly larger than every other node's slot.

    Use :meth:`with_slots` to derive refined schedules (Phase 3
    reassigns slots); the original is never mutated.
    """

    #: parent → sorted children, built on the first :meth:`children_of`
    #: (the schedule is immutable).
    _children: Optional[Dict[NodeId, Tuple[NodeId, ...]]] = None

    def __init__(
        self,
        slots: Mapping[NodeId, int],
        parents: Mapping[NodeId, Optional[NodeId]],
        sink: NodeId,
    ) -> None:
        if sink not in slots:
            raise ScheduleError("the sink must carry a slot (Δ in Figure 2)")
        for node, slot in slots.items():
            if not isinstance(slot, int):
                raise ScheduleError(f"slot of node {node!r} must be an int, got {slot!r}")
            if slot < 1:
                raise ScheduleError(
                    f"slot of node {node!r} is {slot}; slots are numbered from 1"
                )
        sink_slot = slots[sink]
        for node, slot in slots.items():
            if node != sink and slot >= sink_slot:
                raise ScheduleError(
                    f"node {node!r} has slot {slot} >= sink slot {sink_slot}; "
                    "the sink must transmit last"
                )
        for child, parent in parents.items():
            if parent is None:
                continue
            if child not in slots:
                raise ScheduleError(f"parent recorded for unscheduled node {child!r}")
            if parent not in slots:
                raise ScheduleError(
                    f"node {child!r} names unscheduled parent {parent!r}"
                )

        self._slots: Dict[NodeId, int] = dict(slots)
        self._parents: Dict[NodeId, Optional[NodeId]] = {
            n: parents.get(n) for n in slots
        }
        self._parents[sink] = None
        self._sink = sink

    def __getstate__(self) -> Dict[str, object]:
        """Pickle without the derived children index."""
        state = self.__dict__.copy()
        state.pop("_children", None)
        return state

    # ------------------------------------------------------------------
    # Slot assignment view
    # ------------------------------------------------------------------
    @property
    def sink(self) -> NodeId:
        """The sink node ``S``."""
        return self._sink

    @property
    def sink_slot(self) -> int:
        """The sink's slot — ``Δ``, the largest in the schedule."""
        return self._slots[self._sink]

    @property
    def nodes(self) -> Tuple[NodeId, ...]:
        """All scheduled nodes (including the sink), sorted."""
        return tuple(sorted(self._slots))

    @property
    def senders(self) -> Tuple[NodeId, ...]:
        """All transmitting nodes — every scheduled node except the sink."""
        return tuple(n for n in self.nodes if n != self._sink)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._slots

    def __len__(self) -> int:
        return len(self._slots)

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self.nodes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        return (
            self._slots == other._slots
            and self._parents == other._parents
            and self._sink == other._sink
        )

    def __hash__(self) -> int:
        return hash(
            (
                tuple(sorted(self._slots.items())),
                tuple(sorted((k, v) for k, v in self._parents.items())),
                self._sink,
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Schedule(nodes={len(self._slots)}, sink={self._sink}, "
            f"sink_slot={self.sink_slot})"
        )

    def slot_of(self, node: NodeId) -> int:
        """Return the slot assigned to ``node``."""
        try:
            return self._slots[node]
        except KeyError as exc:
            raise ScheduleError(f"node {node!r} has no assigned slot") from exc

    def parent_of(self, node: NodeId) -> Optional[NodeId]:
        """Return the aggregation parent ``node`` chose (``None`` for the sink)."""
        if node not in self._slots:
            raise ScheduleError(f"node {node!r} is not scheduled")
        return self._parents.get(node)

    def children_of(self, node: NodeId) -> Tuple[NodeId, ...]:
        """Return the nodes that chose ``node`` as their parent, sorted."""
        if node not in self._slots:
            raise ScheduleError(f"node {node!r} is not scheduled")
        children = self._children
        if children is None:
            grouped: Dict[NodeId, List[NodeId]] = {}
            for child, parent in self._parents.items():
                if parent is not None:
                    grouped.setdefault(parent, []).append(child)
            children = {p: tuple(sorted(cs)) for p, cs in grouped.items()}
            self._children = children
        return children.get(node, ())

    def slots(self) -> Dict[NodeId, int]:
        """A copy of the node → slot mapping."""
        return dict(self._slots)

    def parents(self) -> Dict[NodeId, Optional[NodeId]]:
        """A copy of the node → parent mapping."""
        return dict(self._parents)

    # ------------------------------------------------------------------
    # Sender-set view (Definitions 2–3)
    # ------------------------------------------------------------------
    def sender_sets(self) -> List[Set[NodeId]]:
        """Return ``⟨σ1, …, σl⟩``: senders grouped by slot, sink excluded.

        Index ``i-1`` of the returned list holds ``σi``.  ``l`` is the
        largest slot used by any sender, so trailing sink-only slots are
        not materialised.
        """
        max_slot = max(
            (s for n, s in self._slots.items() if n != self._sink), default=0
        )
        sets: List[Set[NodeId]] = [set() for _ in range(max_slot)]
        for node, slot in self._slots.items():
            if node != self._sink:
                sets[slot - 1].add(node)
        return sets

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def with_slots(self, changes: Mapping[NodeId, int]) -> "Schedule":
        """Return a copy with every ``node → slot`` change applied at once."""
        new_slots = dict(self._slots)
        for node, slot in changes.items():
            if node not in new_slots:
                raise ScheduleError(f"cannot reslot unscheduled node {node!r}")
            new_slots[node] = slot
        return Schedule(new_slots, self._parents, self._sink)

    def compressed(self) -> "Schedule":
        """Return a copy with slot values remapped to ``1..k`` (k = number
        of distinct values), preserving order and equality.

        Every property the algorithms depend on — relative slot order,
        slot equality (collisions), which neighbour is heard first — is
        invariant under this remapping, so a schedule whose raw values
        overflow the TDMA frame can be compressed to fit without changing
        its behaviour.  Gaps between slot values carry no meaning.
        """
        distinct = sorted(set(self._slots.values()))
        remap = {value: index + 1 for index, value in enumerate(distinct)}
        return Schedule(
            {n: remap[s] for n, s in self._slots.items()},
            self._parents,
            self._sink,
        )

    def covers(self, topology: Topology) -> bool:
        """Whether every node of ``topology`` carries a slot."""
        return all(node in self._slots for node in topology.nodes)
