"""Ablation ``abl-attacker``: capture vs attacker strength (R, H, M).

Sweeps the Figure 1 parameters the paper formalises but does not
evaluate, quantifying how much privacy the SLP refinement retains
against stronger-than-evaluated eavesdroppers.
"""

from conftest import emit

from repro.attacker import AttackerSpec, AvoidRecentlyVisited, FollowAnyHeard, FollowFirstHeard
from repro.core import safety_period
from repro.das import centralized_das_schedule
from repro.experiments import PAPER
from repro.slp import SlpParameters, build_slp_schedule
from repro.topology import paper_grid
from repro.verification import verify_schedule

SEEDS = 40

SWEEP = [
    ("(1,0,1) first-heard [paper]", AttackerSpec(1, 0, 1, FollowFirstHeard())),
    ("(2,0,1) any-heard", AttackerSpec(2, 0, 1, FollowAnyHeard())),
    ("(2,0,2) any-heard", AttackerSpec(2, 0, 2, FollowAnyHeard())),
    ("(1,2,1) avoid-recent", AttackerSpec(1, 2, 1, AvoidRecentlyVisited())),
    ("(3,0,2) any-heard", AttackerSpec(3, 0, 2, FollowAnyHeard())),
]


def test_attacker_strength_sweep():
    grid = paper_grid(11)
    delta = safety_period(grid, PAPER.frame().period_length).periods

    pairs = []
    for seed in range(SEEDS):
        base = centralized_das_schedule(grid, seed=seed)
        refined = build_slp_schedule(
            grid, SlpParameters(3), seed=seed, baseline=base
        ).schedule
        pairs.append((base, refined))

    lines = [f"{'attacker':<30} {'base':>7} {'slp':>7}"]
    results = {}
    for label, spec in SWEEP:
        base_caps = sum(
            not verify_schedule(grid, b, delta, attacker=spec).slp_aware
            for b, _ in pairs
        )
        slp_caps = sum(
            not verify_schedule(grid, r, delta, attacker=spec).slp_aware
            for _, r in pairs
        )
        results[label] = (base_caps, slp_caps)
        lines.append(
            f"{label:<30} {100 * base_caps / SEEDS:>6.1f}% {100 * slp_caps / SEEDS:>6.1f}%"
        )
    emit(f"Ablation: attacker strength ({SEEDS} seeds, 11x11)", "\n".join(lines))

    # The paper's attacker must be reduced by the refinement.
    paper_base, paper_slp = results["(1,0,1) first-heard [paper]"]
    assert paper_slp < paper_base

    # Benchmark one strong-attacker verification.
    strong = SWEEP[-1][1]
    verify_schedule(grid, pairs[0][0], delta, attacker=strong)
