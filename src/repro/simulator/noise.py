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
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Sequence, Tuple

from ..errors import ConfigurationError
from ..topology import NodeId

#: A compiled per-sender lane drawer: given the run's RNG, the lane
#: targets whose frame arrived (the very ``targets`` tuple when all did).
LaneDrawer = Callable[[random.Random], Tuple[int, ...]]


class NoiseModel(ABC):
    """Decides, per transmission and per receiver, whether a frame arrives."""

    @abstractmethod
    def delivers(self, sender: NodeId, receiver: NodeId, rng: random.Random) -> bool:
        """Return ``True`` when the frame from ``sender`` reaches ``receiver``."""

    def delivers_block(
        self, sender: NodeId, receivers: Sequence[NodeId], rng: random.Random
    ) -> List[bool]:
        """Per-receiver outcomes for one broadcast, in receiver order.

        The block form is what :meth:`RadioMedium.broadcast` and the
        fast setup kernels draw through: concrete models override it
        with a loop that binds everything locally and advances per-link
        state inline, removing the per-receiver method dispatch of
        :meth:`delivers`.  **RNG contract:** the block MUST
        consume the run's random stream exactly as ``[self.delivers(
        sender, r, rng) for r in receivers]`` would — same number of
        draws, same order — so a run is bit-identical whichever form the
        medium uses.  This default implementation delegates per call,
        which keeps third-party models that only override
        :meth:`delivers` correct automatically.
        """
        return [self.delivers(sender, receiver, rng) for receiver in receivers]

    def compile_lane(
        self,
        sender: NodeId,
        receivers: Sequence[NodeId],
        targets: Tuple[int, ...],
    ) -> LaneDrawer:
        """Compile one sender's broadcast for the operational fast lane.

        ``targets`` pairs each receiver with the lane's opaque delivery
        target; the returned drawer maps one broadcast to the targets
        whose frame arrived — the ``targets`` tuple itself when every
        frame did.  **RNG contract:** a drawer consumes the stream
        exactly as ``delivers_block(sender, receivers, rng)`` would at
        the same point of the run, and shares its per-link state.  A
        drawer is valid until the next :meth:`reset`: compile after the
        run's reset, never before.  This default is built on
        :meth:`delivers_block`, so models that override only the
        per-call hooks stay correct.
        """
        receivers = tuple(receivers)
        delivers_block = self.delivers_block

        def draw(rng: random.Random) -> Tuple[int, ...]:
            flags = delivers_block(sender, receivers, rng)
            if all(flags):
                return targets
            return tuple(t for t, flag in zip(targets, flags) if flag)

        return draw

    def reset(self) -> None:
        """Clear any per-run state.  Called once per simulation run."""


class IdealNoise(NoiseModel):
    """The paper's ideal communication model: every frame arrives."""

    def delivers(self, sender: NodeId, receiver: NodeId, rng: random.Random) -> bool:
        return True

    def delivers_block(
        self, sender: NodeId, receivers: Sequence[NodeId], rng: random.Random
    ) -> List[bool]:
        # No draws in either form: the per-call path never touches the RNG.
        return [True] * len(receivers)

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

    def delivers(self, sender: NodeId, receiver: NodeId, rng: random.Random) -> bool:
        return rng.random() >= self.loss_probability

    def delivers_block(
        self, sender: NodeId, receivers: Sequence[NodeId], rng: random.Random
    ) -> List[bool]:
        # One draw per receiver, in order — exactly the per-call stream.
        loss = self.loss_probability
        rand = rng.random
        return [rand() >= loss for _ in receivers]

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
        #: directed link -> dense link id, interned on a link's first
        #: draw or lane compile; cleared (with the states) by reset().
        self._link_ids: Dict[Tuple[NodeId, NodeId], int] = {}
        #: per-link chain state by link id; True means the bad state.
        self._states: List[bool] = []

    def _link_id(self, link: Tuple[NodeId, NodeId]) -> int:
        lid = self._link_ids.get(link)
        if lid is None:
            lid = len(self._states)
            self._link_ids[link] = lid
            self._states.append(False)
        return lid

    def delivers(self, sender: NodeId, receiver: NodeId, rng: random.Random) -> bool:
        lid = self._link_id((sender, receiver))
        bad = self._states[lid]
        # Advance the chain once per frame on this link.
        if bad:
            if rng.random() < self.p_bad_to_good:
                bad = False
        else:
            if rng.random() < self.p_good_to_bad:
                bad = True
        self._states[lid] = bad
        loss = self.bad_loss if bad else self.good_loss
        return rng.random() >= loss

    def delivers_block(
        self, sender: NodeId, receivers: Sequence[NodeId], rng: random.Random
    ) -> List[bool]:
        # Two draws per receiver (chain advance, then loss), in receiver
        # order — the same stream :meth:`delivers` consumes per call.
        rand = rng.random
        link_ids = self._link_ids
        states = self._states
        good_loss = self.good_loss
        bad_loss = self.bad_loss
        p_good_to_bad = self.p_good_to_bad
        p_bad_to_good = self.p_bad_to_good
        out: List[bool] = []
        append = out.append
        for receiver in receivers:
            link = (sender, receiver)
            lid = link_ids.get(link)
            if lid is None:
                lid = len(states)
                link_ids[link] = lid
                states.append(False)
            bad = states[lid]
            if bad:
                if rand() < p_bad_to_good:
                    bad = False
            else:
                if rand() < p_good_to_bad:
                    bad = True
            states[lid] = bad
            append(rand() >= (bad_loss if bad else good_loss))
        return out

    def compile_lane(
        self,
        sender: NodeId,
        receivers: Sequence[NodeId],
        targets: Tuple[int, ...],
    ) -> LaneDrawer:
        # The drawer walks (link id, target) pairs over the shared state
        # list: no link tuples, no dict traffic per frame.  Same draws,
        # same order and same state as delivers_block.
        link_id = self._link_id
        lanes = tuple(zip([link_id((sender, r)) for r in receivers], targets))
        states = self._states
        good_loss = self.good_loss
        bad_loss = self.bad_loss
        p_good_to_bad = self.p_good_to_bad
        p_bad_to_good = self.p_bad_to_good
        size = len(targets)

        def draw(rng: random.Random) -> Tuple[int, ...]:
            rand = rng.random
            kept = []
            for lid, target in lanes:
                if states[lid]:
                    if rand() < p_bad_to_good:
                        states[lid] = False
                        loss = good_loss
                    else:
                        loss = bad_loss
                elif rand() < p_good_to_bad:
                    states[lid] = True
                    loss = bad_loss
                else:
                    loss = good_loss
                if rand() >= loss:
                    kept.append(target)
            return targets if len(kept) == size else tuple(kept)

        return draw

    def reset(self) -> None:
        # In place: the ids and states start over, so a drawer compiled
        # before this call is stale (see NoiseModel.compile_lane).
        self._link_ids.clear()
        self._states.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CasinoLabNoise(good_loss={self.good_loss}, bad_loss={self.bad_loss}, "
            f"p_good_to_bad={self.p_good_to_bad}, p_bad_to_good={self.p_bad_to_good})"
        )
