"""Noise-model determinism: the block-draw API consumes exactly the
same RNG stream as the per-call path.

The fast kernel's radio path calls ``delivers_block`` once per
broadcast instead of ``delivers`` once per receiver; the bit-identity
of fast-kernel runs rests on the two forms drawing the same random
numbers in the same order.  These tests pin that contract across 1k+
draws, including ``reset()`` between runs and per-link burst state.
"""

from __future__ import annotations

import random
from itertools import cycle

import pytest

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
    base-class block default must keep it stream-identical."""

    def delivers(self, sender, receiver, rng):
        return rng.random() >= 0.25


MODELS = [
    ("ideal", IdealNoise),
    ("bernoulli", lambda: BernoulliNoise(0.2)),
    ("casino", CasinoLabNoise),
    ("casino-hot", lambda: CasinoLabNoise(p_good_to_bad=0.4, p_bad_to_good=0.3)),
    ("delivers-only-subclass", _OnlyDelivers),
]


class TestBlockDrawEquivalence:
    @pytest.mark.parametrize("with_reset", [False, True], ids=["no-reset", "reset"])
    @pytest.mark.parametrize("name,factory", MODELS, ids=[m[0] for m in MODELS])
    def test_block_consumes_the_per_call_stream(self, name, factory, with_reset):
        per_call = _drive(factory, use_block=False, with_reset=with_reset)
        block = _drive(factory, use_block=True, with_reset=with_reset)
        # Same per-receiver outcomes AND the RNG left in the same state.
        assert per_call == block

    def test_ideal_never_draws(self):
        rng = random.Random(1)
        before = rng.getstate()
        assert IdealNoise().delivers_block(0, (1, 2, 3), rng) == [True] * 3
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
        assert any(noise._states)  # some links entered the bad state
        noise.reset()
        assert not any(noise._states)
