"""Attacker decision functions — the ``D`` parameter of Figure 1.

``D`` maps the messages captured this period and the visited-location
history to the attacker's next position.  The library ships the
functions the SLP literature uses, all sharing one interface so the
runtime attacker and the exhaustive verifier can swap them freely:

* :meth:`DecisionFunction.choose` — the runtime form: pick one location
  (seeded randomness allowed);
* :meth:`DecisionFunction.candidates` — the verification form: *every*
  location the function could pick, which is what
  ``GenerateAllAttackerTraces`` must branch over.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import FrozenSet, Optional, Sequence

from ..records import Record
from ..topology import NodeId


class HeardMessage(Record):
    """One captured transmission: who sent it, in which slot, and when."""

    sender: NodeId
    slot: int
    time: float = 0.0


class DecisionFunction(ABC):
    """The ``D`` of a ``(R, H, M, s0, D)``-attacker."""

    @abstractmethod
    def choose(
        self,
        heard: Sequence[HeardMessage],
        history: Sequence[NodeId],
        rng: random.Random,
    ) -> Optional[NodeId]:
        """Pick the next location from the captured messages.

        ``heard`` is never empty when called (Figure 1's ``Decide`` guard
        is ``msgs ≠ ∅``).  Returns ``None`` to stay put.
        """

    @abstractmethod
    def candidates(
        self,
        heard: Sequence[HeardMessage],
        history: Sequence[NodeId],
    ) -> FrozenSet[NodeId]:
        """Every location :meth:`choose` could return — the branching set
        used by the exhaustive trace generator of Algorithm 1."""

    @property
    def name(self) -> str:
        """Short name used in reports."""
        return type(self).__name__

    # The shipped functions are parameter-free, so two instances of the
    # same class are interchangeable: value equality is type equality.
    # This is what lets an :class:`~repro.attacker.AttackerSpec` (and
    # the frozen ScenarioSpec carrying it) survive a JSON round trip
    # comparing equal.  A parameterised subclass must override both.
    def __eq__(self, other: object) -> bool:
        return type(self) is type(other)

    def __hash__(self) -> int:
        return hash(type(self))

    # The repr must be a pure function of the value (never the default
    # ``<... object at 0x...>``): it feeds the sweep checkpoint's
    # content digest, which two processes — a scheduler and a worker on
    # another host — must derive identically or resume breaks.
    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def _earliest(heard: Sequence[HeardMessage]) -> HeardMessage:
    """The first message captured: minimum ``(time, slot, sender)``."""
    return min(heard, key=lambda h: (h.time, h.slot, h.sender))


class FollowFirstHeard(DecisionFunction):
    """Move to the sender of the first message captured this period.

    This is the ``D`` of the classic ``(1, 0, 1, s0, D)`` attacker the
    paper evaluates (§III-B): "when the attacker hears the first message
    coming from a location j, it will move to j".  Under TDMA the first
    audible transmission is the minimum-slot sender in range, so this
    attacker descends the slot gradient — the behaviour both the decoy
    construction and the verifier reason about.
    """

    def choose(
        self,
        heard: Sequence[HeardMessage],
        history: Sequence[NodeId],
        rng: random.Random,
    ) -> Optional[NodeId]:
        return _earliest(heard).sender

    def candidates(
        self,
        heard: Sequence[HeardMessage],
        history: Sequence[NodeId],
    ) -> FrozenSet[NodeId]:
        if not heard:
            return frozenset()
        return frozenset({_earliest(heard).sender})


class FollowAnyHeard(DecisionFunction):
    """Move to a uniformly random captured sender.

    A weaker attacker used in ablations; its candidate set is every
    captured sender, making the verifier's reachability analysis the
    most pessimistic.
    """

    def choose(
        self,
        heard: Sequence[HeardMessage],
        history: Sequence[NodeId],
        rng: random.Random,
    ) -> Optional[NodeId]:
        return rng.choice(sorted({h.sender for h in heard}))

    def candidates(
        self,
        heard: Sequence[HeardMessage],
        history: Sequence[NodeId],
    ) -> FrozenSet[NodeId]:
        return frozenset(h.sender for h in heard)


class AvoidRecentlyVisited(DecisionFunction):
    """First-heard, but skip senders in the visited-location history.

    Exercises the ``H > 0`` machinery of Figure 1: the attacker refuses
    to re-enter the last ``H`` locations (anti-oscillation), falling back
    to first-heard when every captured sender is in the history.
    """

    def choose(
        self,
        heard: Sequence[HeardMessage],
        history: Sequence[NodeId],
        rng: random.Random,
    ) -> Optional[NodeId]:
        fresh = [h for h in heard if h.sender not in set(history)]
        pool = fresh if fresh else list(heard)
        return _earliest(pool).sender

    def candidates(
        self,
        heard: Sequence[HeardMessage],
        history: Sequence[NodeId],
    ) -> FrozenSet[NodeId]:
        if not heard:
            return frozenset()
        fresh = [h for h in heard if h.sender not in set(history)]
        pool = fresh if fresh else list(heard)
        return frozenset({_earliest(pool).sender})
