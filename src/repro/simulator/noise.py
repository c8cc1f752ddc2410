"""Link noise models.

The paper evaluates under TOSSIM with an "ideal communication model" and
the *casino-lab* noise trace (§VI-A).  We cannot replay the original
trace file offline, so this module substitutes parametric models that
reproduce the two behaviours the algorithms are sensitive to:

* occasional message loss (affects what the attacker hears and which
  dissemination messages arrive), and
* *bursts* of correlated loss, which the casino-lab trace exhibits —
  modelled here with a two-state Gilbert–Elliott chain.

Models are stateless with respect to the simulator: they receive the
run's ``random.Random`` so that all stochasticity flows from one seed.

A model answers in three forms that draw the same stream: per frame
(:meth:`NoiseModel.delivers`), per broadcast (``delivers_block``, the
legacy engine's) and per *stretch* of broadcasts (``draw_block``, the
fast kernels').  A ``random()`` call consumes two 32-bit generator
words, so ``getrandbits(64 * n)`` consumes exactly the words of ``n``
calls.  The word-level models take a stretch's words in that one call
and read each draw's first word's top byte, which bounds the draw to
1/256 of the unit interval: a C-level ``bytes.translate`` + ``find``
scan marks the few lanes whose draw can fall under a threshold, and
only those (and, for the burst chain, the links in the bad state) are
evaluated, exactly, from their own words.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from bisect import bisect_right
from math import ceil
from operator import itemgetter
from typing import Dict, List, Sequence, Set, Tuple

from ..errors import ConfigurationError
from ..topology import NodeId

#: One broadcast of a block draw: the sender and its distinct receivers,
#: in draw order.  Receiver ``-1`` is the attacker's hear lane.
Span = Tuple[NodeId, Sequence[NodeId]]

_receivers = itemgetter(1)

#: ``random()`` is ``k / 2**53`` for the 53-bit integer ``k`` built from
#: two generator words: the top 27 bits of the first, then the top 26 of
#: the second.
_TWO_53 = 9007199254740992.0


def _bound(threshold: float) -> int:
    """The ``K`` with ``random() < threshold`` exactly when ``k < K``.

    ``threshold * 2**53`` is exact (a power-of-two scale), so ``K`` is
    its ceiling."""
    return ceil(threshold * _TWO_53)


def _candidates(bound: int) -> bytes:
    """A ``bytes.translate`` table marking, with 1, each top byte of a
    draw's first word for which ``k < bound`` can hold.  The top byte
    fixes ``k`` to ``[v * 2**45, (v + 1) * 2**45)``, so the marked bytes
    are those under ``ceil(bound / 2**45)``."""
    cut = -(-bound >> 45)
    return b"\x01" * cut + bytes(256 - cut)


def _marked(flags: bytes) -> List[int]:
    """The indexes of the 1 bytes of a translated scan, ascending."""
    out = []
    find = flags.find
    i = find(1)
    while i >= 0:
        out.append(i)
        i = find(1, i + 1)
    return out


def _k(raw: bytes, at: int) -> int:
    """The 53-bit ``k`` of the ``random()`` whose two words start at
    byte ``at`` of a little-endian ``getrandbits`` block."""
    u = int.from_bytes(raw[at : at + 8], "little")
    return ((u & 0xFFFFFFFF) >> 5) << 26 | u >> 38


class NoiseModel(ABC):
    """Decides, per transmission and per receiver, whether a frame arrives."""

    @abstractmethod
    def delivers(self, sender: NodeId, receiver: NodeId, rng: random.Random) -> bool:
        """Return ``True`` when the frame from ``sender`` reaches ``receiver``."""

    def delivers_block(
        self, sender: NodeId, receivers: Sequence[NodeId], rng: random.Random
    ) -> List[bool]:
        """Per-receiver outcomes for one broadcast, in receiver order.

        The legacy engine's :func:`~repro.simulator.engine.broadcast`
        draws through this form.  **RNG contract:** the block MUST
        consume the run's random stream exactly as ``[self.delivers(
        sender, r, rng) for r in receivers]`` would — same number of
        draws, same order — and advance the same per-link state.  This
        default delegates per call, so the legacy engine, the oracle of
        the fast kernels, draws independently of :meth:`draw_block`.
        """
        return [self.delivers(sender, receiver, rng) for receiver in receivers]

    def draw_block(self, spans: Sequence[Span], rng: random.Random) -> List[int]:
        """The lost lanes of a stretch of broadcasts.

        A *lane* is one frame on one directed link; the stretch's lanes
        are numbered from 0 across ``spans`` in order (an empty span
        has none).  Returns the numbers of the lanes whose frame was
        lost, ascending.  The fast kernels draw through this one method:
        the operational kernel once per stretch of a period, the setup
        kernel once per broadcast.  A stretch's links are distinct: no
        sender repeats and no span repeats a receiver, as in every
        stretch the kernels draw (one broadcast per sender, one fan-out
        per broadcast).  **RNG contract:** the call consumes the stream
        and advances per-link state exactly as :meth:`delivers_block`
        once per non-empty span, in span order, would.  This default is
        built on :meth:`delivers_block`, so models that override only
        the per-call hooks stay correct.
        """
        lost: List[int] = []
        base = 0
        delivers_block = self.delivers_block
        for sender, receivers in spans:
            if receivers:
                flags = delivers_block(sender, receivers, rng)
                if not all(flags):
                    lost.extend(base + i for i, flag in enumerate(flags) if not flag)
                base += len(receivers)
        return lost

    def reset(self) -> None:
        """Clear any per-run state.  Called once per simulation run."""


class IdealNoise(NoiseModel):
    """The paper's ideal communication model: every frame arrives."""

    def delivers(self, sender: NodeId, receiver: NodeId, rng: random.Random) -> bool:
        return True

    def draw_block(self, spans: Sequence[Span], rng: random.Random) -> List[int]:
        # Every frame arrives and nothing is drawn.
        return []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "IdealNoise()"


class BernoulliNoise(NoiseModel):
    """Independent per-frame loss with fixed probability.

    The simplest lossy model; useful for ablations where loss rate is the
    swept variable.
    """

    def __init__(self, loss_probability: float) -> None:
        if not 0.0 <= loss_probability < 1.0:
            raise ConfigurationError(
                f"loss probability must be in [0, 1), got {loss_probability}"
            )
        self.loss_probability = loss_probability
        self._loss = _bound(loss_probability)
        self._scan = _candidates(self._loss)

    def delivers(self, sender: NodeId, receiver: NodeId, rng: random.Random) -> bool:
        return rng.random() >= self.loss_probability

    def draw_block(self, spans: Sequence[Span], rng: random.Random) -> List[int]:
        # One draw (two words) per lane, taken in one call.  Only a lane
        # whose first word's top byte can fall under the loss bound is
        # evaluated; every other lane delivers.
        n = sum(map(len, map(_receivers, spans)))
        if not n:
            return []
        raw = rng.getrandbits(64 * n).to_bytes(8 * n, "little")
        loss = self._loss
        return [p for p in _marked(raw[3::8].translate(self._scan)) if _k(raw, 8 * p) < loss]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BernoulliNoise(loss_probability={self.loss_probability})"


class CasinoLabNoise(NoiseModel):
    """Bursty loss approximating TOSSIM's casino-lab noise trace.

    Each directed link evolves through a two-state Gilbert–Elliott chain:
    a *good* state with light loss and a *bad* state with heavy loss.
    Defaults are calibrated so the long-run loss rate is a few percent —
    enough to perturb attacker hearing and dissemination order between
    runs, as the original trace does, without partitioning the network.

    Parameters
    ----------
    good_loss, bad_loss:
        Per-frame loss probability in each state.
    p_good_to_bad, p_bad_to_good:
        Per-frame state transition probabilities.
    """

    def __init__(
        self,
        good_loss: float = 0.005,
        bad_loss: float = 0.25,
        p_good_to_bad: float = 0.03,
        p_bad_to_good: float = 0.50,
    ) -> None:
        for name, value in (
            ("good_loss", good_loss),
            ("bad_loss", bad_loss),
        ):
            if not 0.0 <= value < 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1), got {value}")
        for name, value in (
            ("p_good_to_bad", p_good_to_bad),
            ("p_bad_to_good", p_bad_to_good),
        ):
            if not 0.0 < value <= 1.0:
                raise ConfigurationError(f"{name} must be in (0, 1], got {value}")
        self.good_loss = good_loss
        self.bad_loss = bad_loss
        self.p_good_to_bad = p_good_to_bad
        self.p_bad_to_good = p_bad_to_good
        #: sender -> the receivers whose link from it is in the bad
        #: state.  Every other link is good; cleared by reset().
        self._bad: Dict[NodeId, Set[NodeId]] = {}
        # The word-level bounds of the four thresholds, and the scans
        # for the two a good-state lane compares against.
        self._good_to_bad = _bound(p_good_to_bad)
        self._bad_to_good = _bound(p_bad_to_good)
        self._good_loss = _bound(good_loss)
        self._bad_loss = _bound(bad_loss)
        self._turn_scan = _candidates(self._good_to_bad)
        self._loss_scan = _candidates(self._good_loss)

    def delivers(self, sender: NodeId, receiver: NodeId, rng: random.Random) -> bool:
        bad_from = self._bad.get(sender)
        # Advance the chain once per frame on this link.
        if bad_from is not None and receiver in bad_from:
            bad = not rng.random() < self.p_bad_to_good
            if not bad:
                bad_from.discard(receiver)
                if not bad_from:
                    del self._bad[sender]
        else:
            bad = rng.random() < self.p_good_to_bad
            if bad:
                self._bad.setdefault(sender, set()).add(receiver)
        loss = self.bad_loss if bad else self.good_loss
        return rng.random() >= loss

    def draw_block(self, spans: Sequence[Span], rng: random.Random) -> List[int]:
        # Two draws (four words) per lane, chain advance then loss, all
        # taken in one call.  A lane can drop its frame or change its
        # chain only if its link is bad, or if one of its two draws can
        # fall under the good state's bound: the bad-link table finds
        # the former, the top-byte scans the latter.  Every other lane
        # delivers and stays good, and a stretch's links are distinct,
        # so only those lanes are evaluated, each against its own words.
        bad = self._bad
        ends: List[int] = []
        hits = []
        n = 0
        for sender, receivers in spans:
            if sender in bad:
                for receiver in bad[sender]:
                    if receiver in receivers:
                        hits.append((n + receivers.index(receiver), sender, receiver))
            n += len(receivers)
            ends.append(n)
        if not n:
            return []
        raw = rng.getrandbits(128 * n).to_bytes(16 * n, "little")
        lost: List[int] = []
        done = set()
        turn = self._bad_to_good
        turn_lo, turn_hi = turn >> 45, -(-turn >> 45)
        for lane, sender, receiver in hits:
            # A bad link: a turn draw under the bound turns it good.
            done.add(lane)
            at = 16 * lane
            top = raw[at + 3]
            if top < turn_lo or (top < turn_hi and _k(raw, at) < turn):
                bad_from = bad[sender]
                bad_from.discard(receiver)
                if not bad_from:
                    del bad[sender]
                loss = self._good_loss
            else:
                loss = self._bad_loss
            top = raw[at + 11]
            if top < loss >> 45 or (top < -(-loss >> 45) and _k(raw, at + 8) < loss):
                lost.append(lane)
        turn = self._good_to_bad
        turn_lo, turn_hi = turn >> 45, -(-turn >> 45)
        for lane in _marked(raw[3::16].translate(self._turn_scan)) + _marked(
            raw[11::16].translate(self._loss_scan)
        ):
            if lane in done:
                continue
            # A good link: a turn draw under the bound turns it bad.
            done.add(lane)
            at = 16 * lane
            top = raw[at + 3]
            if top < turn_lo or (top < turn_hi and _k(raw, at) < turn):
                k = bisect_right(ends, lane)
                sender, receivers = spans[k]
                receiver = receivers[lane - ends[k] + len(receivers)]
                bad_from = bad.get(sender)
                if bad_from is None:
                    bad[sender] = {receiver}
                else:
                    bad_from.add(receiver)
                loss = self._bad_loss
            else:
                loss = self._good_loss
            top = raw[at + 11]
            if top < loss >> 45 or (top < -(-loss >> 45) and _k(raw, at + 8) < loss):
                lost.append(lane)
        lost.sort()
        return lost

    def reset(self) -> None:
        self._bad.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CasinoLabNoise(good_loss={self.good_loss}, bad_loss={self.bad_loss}, "
            f"p_good_to_bad={self.p_good_to_bad}, p_bad_to_good={self.p_bad_to_good})"
        )
