"""Attacker trace generation — ``GenerateAllAttackerTraces`` of Algorithm 1.

A *trace* is a sequence of locations ``⟨s0 s1 … sj⟩`` with every
consecutive pair connected by an edge (the attacker moves one hop at a
time).  A trace is *valid* when every step is justified by the
attacker's parameters: the destination is among the senders the
attacker could have heard (the ``R`` lowest-slot 1-hop neighbours —
``1HopNsWithRLowestSlots``) and chosen by its decision function ``D``,
and the move budget ``M`` per period is respected.

Algorithm 1 counts periods exactly as implemented here: a move to a
*lower* slot starts a new period (the attacker heard it earlier in the
frame and committed its move; line 10), while a move to a higher slot
spends one of the ``M`` within-period moves (lines 11–12).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from ..attacker import AttackerSpec, HeardMessage
from ..core import Schedule
from ..errors import VerificationError
from ..topology import NodeId, Topology


@dataclass(frozen=True)
class AttackerStep:
    """One justified attacker transition."""

    destination: NodeId
    new_period: int
    new_moves: int


def audible_senders(
    topology: Topology, schedule: Schedule, location: NodeId
) -> List[NodeId]:
    """The 1-hop neighbours of ``location`` that transmit data.

    The sink never transmits (Def. 2 condition 2 excludes it from every
    sender set), so it is never audible.
    """
    return [
        m
        for m in topology.neighbours(location)
        if m in schedule and m != schedule.sink
    ]


def lowest_slot_neighbours(
    topology: Topology,
    schedule: Schedule,
    location: NodeId,
    r: int,
) -> List[HeardMessage]:
    """``1HopNsWithRLowestSlots``: the ``R`` earliest-transmitting
    neighbours of ``location``, as heard messages in slot order."""
    senders = sorted(
        audible_senders(topology, schedule, location),
        key=lambda m: (schedule.slot_of(m), m),
    )
    return [
        HeardMessage(sender=m, slot=schedule.slot_of(m), time=float(schedule.slot_of(m)))
        for m in senders[:r]
    ]


def valid_steps(
    topology: Topology,
    schedule: Schedule,
    spec: AttackerSpec,
    location: NodeId,
    period: int,
    moves: int,
    history: Tuple[NodeId, ...],
) -> Iterator[AttackerStep]:
    """Yield every attacker step valid from the given state.

    Implements lines 7–12 of Algorithm 1: compute ``B``, ask ``D`` for
    the candidate destinations, and apply the period/move bookkeeping.
    """
    heard = lowest_slot_neighbours(topology, schedule, location, spec.r)
    if not heard:
        return
    here_slot = schedule.slot_of(location) if location in schedule else None
    for destination in sorted(spec.decision.candidates(tuple(heard), history)):
        if not topology.are_linked(location, destination):
            continue  # line 8: moving to an unheard location is invalid
        if here_slot is None or here_slot > schedule.slot_of(destination):
            # Line 10: a downhill move commits the period.
            yield AttackerStep(destination, period + 1, 1)
        elif moves >= spec.m:
            continue  # line 11: move budget exhausted — the trace ends
        else:
            yield AttackerStep(destination, period, moves + 1)


def generate_attacker_traces(
    topology: Topology,
    schedule: Schedule,
    spec: AttackerSpec,
    start: NodeId,
    max_periods: int,
    max_traces: Optional[int] = None,
) -> Iterator[Tuple[NodeId, ...]]:
    """Enumerate the valid attacker traces of at most ``max_periods``.

    This is the literal ``GenerateAllAttackerTraces``: a depth-first
    enumeration of maximal valid traces.  The efficient verifier in
    :mod:`repro.verification.verify` explores the same step relation as
    a shortest-path search instead; this generator exists for tests,
    analysis and the Algorithm 1 benchmark.
    """
    if max_periods < 0:
        raise VerificationError("max_periods cannot be negative")
    emitted = 0

    def extend(
        location: NodeId,
        period: int,
        moves: int,
        history: Tuple[NodeId, ...],
        trace: List[NodeId],
        seen: frozenset,
    ) -> Iterator[Tuple[NodeId, ...]]:
        nonlocal emitted
        steps = [
            s
            for s in valid_steps(
                topology, schedule, spec, location, period, moves, history
            )
            if s.new_period <= max_periods
            and (s.destination, s.new_period, s.new_moves) not in seen
        ]
        if not steps:
            yield tuple(trace)
            return
        for step in steps:
            if max_traces is not None and emitted >= max_traces:
                return
            new_history = history
            if spec.h > 0:
                new_history = (history + (location,))[-spec.h :]
            trace.append(step.destination)
            marker = (step.destination, step.new_period, step.new_moves)
            yield from extend(
                step.destination,
                step.new_period,
                step.new_moves,
                new_history,
                trace,
                seen | {marker},
            )
            trace.pop()

    for full in extend(start, 0, 0, (), [start], frozenset()):
        emitted += 1
        yield full
        if max_traces is not None and emitted >= max_traces:
            return
