"""Experiment ``fig1``: the (R, H, M, s0, D)-attacker state machine.

Figure 1 is a specification, not a results plot; its reproduction
artefact is behavioural — the state machine driven at full speed, plus
the strength ordering its parameters induce (stronger parameters never
capture less, measured via the verifier).
"""

import random

from conftest import emit

from repro.attacker import (
    AttackerSpec,
    AttackerState,
    FollowAnyHeard,
    HeardMessage,
    paper_attacker,
)
from repro.core import safety_period
from repro.das import centralized_das_schedule
from repro.experiments import PAPER
from repro.topology import paper_grid
from repro.verification import verify_schedule

SEEDS = 60


def test_attacker_state_machine_throughput():
    """Benchmark Figure 1's hear/decide cycle."""
    spec = paper_attacker()
    rng = random.Random(0)

    def drive():
        state = AttackerState(spec, start=0)
        for period in range(200):
            state.next_period()
            state.hear(HeardMessage(sender=period + 1, slot=1, time=float(period)))
            state.decide(rng)
        return state

    state = drive()
    assert len(state.path) == 201  # one move per period


def test_attacker_strength_ordering():
    """A (2, 0, 2, s0, any-heard) attacker weakly dominates the paper's
    (1, 0, 1, s0, first-heard) attacker in captures."""
    grid = paper_grid(11)
    delta = safety_period(grid, PAPER.frame().period_length).periods
    strong_spec = AttackerSpec(
        messages_per_move=2, moves_per_period=2, decision=FollowAnyHeard()
    )
    verify_schedule(
        grid,
        centralized_das_schedule(grid, seed=0),
        delta,
        attacker=strong_spec,
    )
    weak_caps = strong_caps = 0
    for seed in range(SEEDS):
        schedule = centralized_das_schedule(grid, seed=seed)
        weak_caps += not verify_schedule(grid, schedule, delta).slp_aware
        strong_caps += not verify_schedule(
            grid, schedule, delta, attacker=strong_spec
        ).slp_aware
    emit(
        "Attacker strength (Figure 1 parameters)",
        f"(1,0,1,s0,first-heard): {100 * weak_caps / SEEDS:.1f}% capture\n"
        f"(2,0,2,s0,any-heard):   {100 * strong_caps / SEEDS:.1f}% capture",
    )
    assert strong_caps >= weak_caps
