"""``VerifySchedule`` — Algorithm 1, the δ-SLP-awareness decision procedure.

Given a topology, a slot assignment ``F``, an attacker and a safety
period ``δ``, the procedure either certifies that no valid attacker
trace reaches the source within ``δ`` periods — ``(True, ⊥, δ)`` — or
returns a *counterexample* trace and its capture period —
``(False, pc, p)`` — exactly like a model checker.

Instead of materialising every trace (the literal
``GenerateAllAttackerTraces`` lives in :mod:`repro.verification.traces`),
the implementation runs a 0-1 breadth-first search over attacker states
``(location, moves, history)`` with the period as path cost: downhill
moves cost one period (Algorithm 1 line 10), within-period uphill moves
cost zero (lines 11–12).  This explores the identical step relation and
returns a *minimum-period* counterexample, which makes the reported
capture period canonical.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional, Tuple

from ..attacker import AttackerSpec, paper_attacker
from ..core import Schedule, check_weak_das
from ..errors import VerificationError
from ..records import Record
from ..topology import NodeId, Topology
from .traces import valid_steps

#: State: (location, moves-used-this-period, history tuple).
_State = Tuple[NodeId, int, Tuple[NodeId, ...]]


class VerificationResult(Record):
    """The triple returned by ``VerifySchedule``.

    Attributes
    ----------
    slp_aware:
        ``True`` when no valid attacker trace captures the source within
        the safety period.
    counterexample:
        The violating trace ``pc`` (attacker locations from ``s0`` to the
        source), or ``None`` when ``slp_aware``.
    periods:
        The capture period ``p`` of the counterexample, or the safety
        period ``δ`` when ``slp_aware`` (mirroring ``(True, ⊥, δ)``).
    states_explored:
        Search effort, for the Algorithm 1 cost benchmark.
    """

    slp_aware: bool
    counterexample: Optional[Tuple[NodeId, ...]]
    periods: int
    states_explored: int = 0

    def __bool__(self) -> bool:
        return self.slp_aware


def verify_schedule(
    topology: Topology,
    schedule: Schedule,
    safety_period: int,
    attacker: Optional[AttackerSpec] = None,
    source: Optional[NodeId] = None,
    start: Optional[NodeId] = None,
) -> VerificationResult:
    """Decide whether ``schedule`` is δ-SLP-aware (Definition 6).

    Parameters
    ----------
    topology, schedule:
        The network and slot assignment ``F``.
    safety_period:
        ``δ`` in whole TDMA periods (see
        :func:`repro.core.safety_period`).
    attacker:
        The ``(R, H, M, s0, D)`` parameters; defaults to the paper's
        ``(1, 0, 1, s0, first-heard)`` attacker.
    source:
        ``S``; defaults to the topology's designated source.
    start:
        ``s0``; defaults to the sink (the attacker lurks where traffic
        converges, as in the panda-hunter game).
    """
    if safety_period < 0:
        raise VerificationError("the safety period cannot be negative")
    spec = attacker if attacker is not None else paper_attacker()
    src = source if source is not None else topology.source
    s0 = start if start is not None else topology.sink
    if src not in topology:
        raise VerificationError(f"source {src} is not part of the topology")
    if s0 not in topology:
        raise VerificationError(f"attacker start {s0} is not part of the topology")
    if not schedule.covers(topology):
        raise VerificationError("the schedule does not cover the topology")

    if s0 == src:
        return VerificationResult(
            slp_aware=False,
            counterexample=(s0,),
            periods=0,
            states_explored=1,
        )

    initial: _State = (s0, 0, ())
    best_period: Dict[_State, int] = {initial: 0}
    predecessor: Dict[_State, Optional[_State]] = {initial: None}
    queue = deque([initial])
    explored = 0

    def reconstruct(state: _State) -> Tuple[NodeId, ...]:
        path = []
        cursor: Optional[_State] = state
        while cursor is not None:
            path.append(cursor[0])
            cursor = predecessor[cursor]
        return tuple(reversed(path))

    while queue:
        state = queue.popleft()
        location, moves, history = state
        period = best_period[state]
        explored += 1
        for step in valid_steps(
            topology, schedule, spec, location, period, moves, history
        ):
            if step.new_period > safety_period:
                continue  # cannot capture within δ along this step
            new_history = history
            if spec.h > 0:
                new_history = (history + (location,))[-spec.h :]
            new_state: _State = (step.destination, step.new_moves, new_history)
            known = best_period.get(new_state)
            if known is not None and known <= step.new_period:
                continue
            best_period[new_state] = step.new_period
            predecessor[new_state] = state
            if step.destination == src:
                return VerificationResult(
                    slp_aware=False,
                    counterexample=reconstruct(new_state),
                    periods=step.new_period,
                    states_explored=explored,
                )
            # 0-1 BFS: zero-cost (same-period) steps go to the front.
            if step.new_period == period:
                queue.appendleft(new_state)
            else:
                queue.append(new_state)

    return VerificationResult(
        slp_aware=True,
        counterexample=None,
        periods=safety_period,
        states_explored=explored,
    )


def minimum_capture_period(
    topology: Topology,
    schedule: Schedule,
    attacker: Optional[AttackerSpec] = None,
    source: Optional[NodeId] = None,
    start: Optional[NodeId] = None,
    bound: Optional[int] = None,
) -> Optional[int]:
    """The capture time ``δ_{F,A}`` of Definition 4, in periods.

    Returns ``None`` when no valid attacker trace ever reaches the
    source (the attacker strands in a slot-gradient basin).  ``bound``
    defaults to one period per node — no minimal capture can take
    longer, since a minimum-period trace never revisits a state.
    """
    horizon = bound if bound is not None else topology.num_nodes
    result = verify_schedule(
        topology,
        schedule,
        safety_period=horizon,
        attacker=attacker,
        source=source,
        start=start,
    )
    return None if result.slp_aware else result.periods


def is_slp_aware_das(
    topology: Topology,
    refined: Schedule,
    baseline: Schedule,
    attacker: Optional[AttackerSpec] = None,
) -> bool:
    """Definition 5: is ``refined`` a weak SLP-aware DAS w.r.t.
    ``baseline``?

    Condition 1: ``refined`` is a weak DAS.
    Condition 2: its capture time strictly exceeds the baseline's
    (never-captured counts as infinite).
    """
    if not check_weak_das(topology, refined).ok:
        return False
    refined_capture = minimum_capture_period(topology, refined, attacker=attacker)
    baseline_capture = minimum_capture_period(topology, baseline, attacker=attacker)
    if baseline_capture is None:
        # The baseline is already uncapturable; the refined schedule must
        # be uncapturable too to be no worse.
        return refined_capture is None
    if refined_capture is None:
        return True
    return refined_capture > baseline_capture
