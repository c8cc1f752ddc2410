"""Noise-model determinism: the block forms consume exactly the same
RNG stream as the per-call path.

The legacy engine draws a broadcast through ``delivers_block``; the fast
kernels draw a stretch of broadcasts through ``draw_block``, which
takes all the stretch's generator words in one call and evaluates only
the lanes where something can happen.  The bit-identity of the engines
rests on both forms drawing the same numbers in the same order and
leaving every link's chain where per-lane ``delivers`` calls would.
These tests pin that contract: across 1k+ draws, as a generated
property over span lists, chain histories and thresholds, and on
hand-built words at each threshold's boundary byte.
"""

from __future__ import annotations

import math
import random
from itertools import cycle

import pytest
from differential import differential_settings
from hypothesis import given
from hypothesis import strategies as st

from repro.simulator import BernoulliNoise, CasinoLabNoise, IdealNoise
from repro.simulator.noise import NoiseModel


#: Enough (sender, receivers) broadcasts to exceed 1k draws per model.
def _broadcast_plan(links=700):
    sizes = cycle((1, 2, 3, 4, 0, 5))
    plan, link = [], 0
    while link < links:
        size = next(sizes)
        sender = link % 37
        plan.append((sender, tuple(range(link, link + size))))
        link += max(size, 1)
    return plan


def _drive(model_factory, use_block: bool, with_reset: bool):
    """Run the plan through one freshly built model; return outcomes and
    the RNG's next draws (proving identical stream consumption)."""
    model = model_factory()
    rng = random.Random(0xC0FFEE)
    outcomes = []
    for round_index in range(2):
        if with_reset and round_index:
            model.reset()
        for sender, receivers in _broadcast_plan():
            if use_block:
                outcomes.extend(model.delivers_block(sender, receivers, rng))
            else:
                outcomes.extend(
                    model.delivers(sender, r, rng) for r in receivers
                )
    return outcomes, [rng.random() for _ in range(5)]


class _OnlyDelivers(NoiseModel):
    """A third-party-style model overriding only the per-call hook; the
    base-class block defaults must keep it stream-identical."""

    def delivers(self, sender, receiver, rng):
        return rng.random() >= 0.25


MODELS = [
    ("ideal", IdealNoise),
    ("bernoulli", lambda: BernoulliNoise(0.2)),
    ("casino", CasinoLabNoise),
    ("casino-hot", lambda: CasinoLabNoise(p_good_to_bad=0.4, p_bad_to_good=0.3)),
    ("delivers-only-subclass", _OnlyDelivers),
]


def _bad_links(model):
    """The links a model holds in the bad state (none for stateless ones)."""
    bad = getattr(model, "_bad", {})
    return {(sender, receiver) for sender, receivers in bad.items() for receiver in receivers}


def _per_lane(model, spans, rng):
    """The reference: one ``delivers`` call per lane, in order."""
    lost, lane = [], 0
    for sender, receivers in spans:
        for receiver in receivers:
            if not model.delivers(sender, receiver, rng):
                lost.append(lane)
            lane += 1
    return lost


class TestBlockDrawEquivalence:
    @pytest.mark.parametrize("with_reset", [False, True], ids=["no-reset", "reset"])
    @pytest.mark.parametrize("name,factory", MODELS, ids=[m[0] for m in MODELS])
    def test_block_consumes_the_per_call_stream(self, name, factory, with_reset):
        per_call = _drive(factory, use_block=False, with_reset=with_reset)
        block = _drive(factory, use_block=True, with_reset=with_reset)
        # Same per-receiver outcomes AND the RNG left in the same state.
        assert per_call == block

    @pytest.mark.parametrize("name,factory", MODELS, ids=[m[0] for m in MODELS])
    def test_stretches_consume_the_per_call_stream(self, name, factory):
        """The plan cut into multi-sender stretches, as the operational
        kernel draws a period."""
        per_lane, block = factory(), factory()
        rng_lane, rng_block = random.Random(11), random.Random(11)
        plan = _broadcast_plan()
        for start in range(0, len(plan), 25):
            stretch = plan[start : start + 25]
            assert block.draw_block(stretch, rng_block) == _per_lane(
                per_lane, stretch, rng_lane
            )
            assert _bad_links(block) == _bad_links(per_lane)
        assert rng_block.getstate() == rng_lane.getstate()

    def test_ideal_never_draws(self):
        rng = random.Random(1)
        before = rng.getstate()
        assert IdealNoise().delivers_block(0, (1, 2, 3), rng) == [True] * 3
        assert IdealNoise().draw_block([(0, (1, 2, 3)), (4, (-1,))], rng) == []
        assert rng.getstate() == before

    def test_casino_block_advances_per_link_state(self):
        """The burst chain is shared between forms: interleaving them
        mid-run still yields one consistent stream."""
        a, b = CasinoLabNoise(), CasinoLabNoise()
        rng_a, rng_b = random.Random(7), random.Random(7)
        for step in range(300):
            sender, receivers = step % 5, (step % 11, (step + 1) % 11)
            if step % 2:
                out_a = a.delivers_block(sender, receivers, rng_a)
            else:
                out_a = [a.delivers(sender, r, rng_a) for r in receivers]
            out_b = [b.delivers(sender, r, rng_b) for r in receivers]
            assert out_a == out_b
        assert rng_a.random() == rng_b.random()

    def test_reset_clears_burst_state(self):
        noise = CasinoLabNoise(p_good_to_bad=1.0, p_bad_to_good=0.01)
        rng = random.Random(3)
        noise.delivers_block(0, tuple(range(50)), rng)
        assert _bad_links(noise)  # some links entered the bad state
        noise.reset()
        assert not _bad_links(noise)


# ----------------------------------------------------------------------
# The block-draw contract as a generated property
# ----------------------------------------------------------------------
#: Thresholds: the casino defaults' own, dyadic ones (exact multiples of
#: a top byte's width), non-dyadic ones, and ones >= 1/2, under which
#: half the top bytes or more are candidates.
THRESHOLDS = st.sampled_from([0.0, 0.005, 0.03, 0.25, 0.5, 0.1, 1 / 3, 0.7, 0.999, 1e-9])
TRANSITIONS = st.sampled_from([0.03, 0.5, 0.25, 1 / 3, 0.75, 1.0, 1e-9])


@st.composite
def casino_models(draw):
    params = (
        draw(THRESHOLDS),
        draw(THRESHOLDS),
        draw(TRANSITIONS),
        draw(TRANSITIONS),
    )
    return lambda: CasinoLabNoise(*params)


@st.composite
def span_lists(draw):
    """A stretch: distinct senders, each with distinct receivers drawn
    from a small pool (so links recur across stretches); spans may be
    empty or one lane, and some end with the hear lane ``-1``."""
    senders = draw(st.lists(st.integers(0, 9), unique=True, max_size=7))
    spans = []
    for sender in senders:
        receivers = draw(st.lists(st.integers(0, 9), unique=True, max_size=5))
        if draw(st.booleans()):
            receivers.append(-1)
        spans.append((sender, tuple(receivers)))
    return spans


MODEL_FACTORIES = st.one_of(
    st.just(CasinoLabNoise),
    casino_models(),
    THRESHOLDS.map(lambda t: lambda: BernoulliNoise(t)),
)


@differential_settings(max_examples=150)
@given(
    factory=MODEL_FACTORIES,
    history=st.lists(st.tuples(st.integers(0, 9), st.integers(-1, 9)), max_size=40),
    stretches=st.lists(span_lists(), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_draw_block_equals_per_lane_delivers(factory, history, stretches, seed):
    """Losses, the link states afterwards and ``rng.getstate()`` equal
    per-lane ``delivers`` calls, after a random chain history."""
    block, per_lane = factory(), factory()
    rng_block, rng_lane = random.Random(seed), random.Random(seed)
    for sender, receiver in history:
        block.delivers(sender, receiver, rng_block)
        per_lane.delivers(sender, receiver, rng_lane)
    for spans in stretches:
        assert block.draw_block(spans, rng_block) == _per_lane(per_lane, spans, rng_lane)
        assert _bad_links(block) == _bad_links(per_lane)
        assert rng_block.getstate() == rng_lane.getstate()


# ----------------------------------------------------------------------
# Hand-built words at each threshold's boundary
# ----------------------------------------------------------------------
class _Words:
    """A stand-in generator replaying fixed 32-bit words: ``random()``
    takes two, as CPython's does, and ``getrandbits(32 * n)`` takes n,
    least significant first."""

    def __init__(self, words):
        self.words = list(words)

    def _take(self, n):
        taken, self.words = self.words[:n], self.words[n:]
        assert len(taken) == n, "ran out of words"
        return taken

    def random(self):
        a, b = self._take(2)
        return ((a >> 5) * 67108864.0 + (b >> 6)) * (1.0 / 9007199254740992.0)

    def getrandbits(self, k):
        assert k % 32 == 0
        return sum(w << (32 * i) for i, w in enumerate(self._take(k // 32)))


def _words_for(k, noise=0):
    """The two words whose ``random()`` is ``k / 2**53``; ``noise`` fills
    the low bits CPython discards."""
    return [((k >> 26) << 5) | (noise & 31), ((k & (2**26 - 1)) << 6) | (noise & 63)]


def _boundary_draws(threshold):
    """Draws around ``threshold``: the last value under it and the first
    not under it, and the edges of the top bytes on either side."""
    bound = math.ceil(threshold * 2**53)  # random() < threshold <=> k < bound
    cut = -(-bound >> 45)  # the first top byte wholly at or above it
    values = {bound - 1, bound, (cut - 1) << 45, (cut << 45) - 1, cut << 45}
    return sorted(v for v in values if 0 <= v < 2**53)


def test_stand_in_words_match_the_real_generator():
    real, replay = random.Random(5), random.Random(5)
    words = [replay.getrandbits(32) for _ in range(8)]
    stand_in = _Words(words)
    assert [stand_in.random() for _ in range(4)] == [real.random() for _ in range(4)]


@pytest.mark.parametrize("threshold", [0.005, 0.03, 0.25, 0.5, 1 / 3, 0.7])
def test_boundary_bytes_decide_like_the_float(threshold):
    """A draw exactly at, just under and around a threshold's boundary
    byte is judged as ``random() < threshold`` judges it, for both
    word-level models and both casino draws."""
    for k in _boundary_draws(threshold):
        for noise in (0, 2**32 - 1):
            draw = _words_for(k, noise)
            far = _words_for(2**53 - 1)
            # Bernoulli: one draw per lane.
            words = draw + far
            lanes = [(0, (1, 2))]
            model = BernoulliNoise(threshold)
            assert model.draw_block(lanes, _Words(words)) == _per_lane(
                BernoulliNoise(threshold), lanes, _Words(words)
            )
            # Casino: the boundary as the turn draw, then as the loss draw.
            for words in (draw + far, far + draw):
                for bad_first in (False, True):
                    block, per_lane = (
                        CasinoLabNoise(threshold, threshold, threshold, threshold)
                        for _ in range(2)
                    )
                    if bad_first:
                        block._bad[0] = {1}
                        per_lane._bad[0] = {1}
                    got = block.draw_block([(0, (1,))], _Words(words))
                    assert got == _per_lane(per_lane, [(0, (1,))], _Words(words))
                    assert _bad_links(block) == _bad_links(per_lane)
