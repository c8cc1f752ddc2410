"""The ``(R, H, M, s0, D)``-attacker of Figure 1.

:class:`AttackerSpec` carries the five parameters; :class:`AttackerState`
is the pure state machine (variables ``msgs``, ``moves``, ``history``,
``curLoc`` and the three actions ``NextP``, ``ARcv``, ``Decide``),
independent of any simulator so that the runtime eavesdropper and unit
tests drive the exact same logic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional

from ..errors import invalid_field
from ..topology import NodeId
from .decision import DecisionFunction, FollowFirstHeard, HeardMessage


@dataclass(frozen=True)
class AttackerSpec:
    """Parameters of a ``(R, H, M, s0, D)``-attacker.

    Attributes
    ----------
    messages_per_move:
        ``R`` — captured messages needed before a move decision.
    history_size:
        ``H`` — how many recently visited locations are remembered.
    moves_per_period:
        ``M`` — moves allowed within one TDMA period.
    decision:
        ``D`` — the next-location function.
    """

    messages_per_move: int = 1
    history_size: int = 0
    moves_per_period: int = 1
    decision: DecisionFunction = field(default_factory=FollowFirstHeard)

    def __post_init__(self) -> None:
        if self.messages_per_move < 1:
            raise invalid_field(
                "AttackerSpec",
                "messages_per_move",
                self.messages_per_move,
                "R (messages per move) must be at least 1",
            )
        if self.history_size < 0:
            raise invalid_field(
                "AttackerSpec",
                "history_size",
                self.history_size,
                "H (history size) cannot be negative",
            )
        if self.moves_per_period < 1:
            raise invalid_field(
                "AttackerSpec",
                "moves_per_period",
                self.moves_per_period,
                "M (moves per period) must be at least 1",
            )

    @property
    def r(self) -> int:
        """Alias for ``messages_per_move`` matching the paper's ``R``."""
        return self.messages_per_move

    @property
    def h(self) -> int:
        """Alias for ``history_size`` matching the paper's ``H``."""
        return self.history_size

    @property
    def m(self) -> int:
        """Alias for ``moves_per_period`` matching the paper's ``M``."""
        return self.moves_per_period

    def describe(self) -> str:
        """The paper's tuple notation, e.g. ``(1, 0, 1, s0, FollowFirstHeard)``."""
        return (
            f"({self.r}, {self.h}, {self.m}, s0, {self.decision.name})-A"
        )


def paper_attacker() -> AttackerSpec:
    """The attacker of the paper's evaluation: ``(1, 0, 1, s0, D)`` with
    first-heard ``D`` (§VI-C)."""
    return AttackerSpec(
        messages_per_move=1,
        history_size=0,
        moves_per_period=1,
        decision=FollowFirstHeard(),
    )


class AttackerState:
    """Figure 1's process, as an explicitly steppable state machine."""

    def __init__(self, spec: AttackerSpec, start: NodeId) -> None:
        self._spec = spec
        self._start = start
        self.location: NodeId = start
        self.messages: List[HeardMessage] = []  # msgs
        self.moves: int = 0                     # moves this period
        self.history: List[NodeId] = []         # circular, size H
        self.path: List[NodeId] = [start]       # every location occupied

    @property
    def spec(self) -> AttackerSpec:
        """The attacker's parameters."""
        return self._spec

    @property
    def start(self) -> NodeId:
        """``s0``, the initial location."""
        return self._start

    # ------------------------------------------------------------------
    # Figure 1 actions
    # ------------------------------------------------------------------
    def next_period(self) -> None:
        """``NextP``: period boundary — forget messages, refresh moves."""
        self.messages.clear()
        self.moves = 0

    def hear(self, message: HeardMessage) -> bool:
        """``ARcv``: capture a message (up to ``R`` per decision).

        Returns ``True`` when enough messages are buffered for ``Decide``
        to fire.
        """
        if len(self.messages) < self._spec.r:
            self.messages.append(message)
        return len(self.messages) >= self._spec.r

    def decide(self, rng: random.Random) -> Optional[NodeId]:
        """``Decide``: move using ``D`` if the move budget allows.

        Returns the new location, or ``None`` when no move happened
        (no messages, exhausted budget, or ``D`` chose to stay).
        """
        if not self.messages or self.moves >= self._spec.m:
            return None
        if self._spec.h > 0:
            self.history.append(self.location)
            if len(self.history) > self._spec.h:
                self.history.pop(0)
        target = self._spec.decision.choose(
            tuple(self.messages), tuple(self.history), rng
        )
        self.moves += 1
        self.messages.clear()
        if target is None or target == self.location:
            return None
        self.location = target
        self.path.append(target)
        return target

    def reset(self) -> None:
        """Return to the initial state (fresh run, same parameters)."""
        self.location = self._start
        self.messages.clear()
        self.moves = 0
        self.history.clear()
        self.path = [self._start]
