"""Ablation ``abl-sd``: capture vs search distance.

The paper evaluates SD ∈ {3, 5}; this sweep covers 1..7 to expose the
trade-off the two values sit on (too shallow: the decoy is planted
inside the attacker's first hops and the basin abuts the sink; too
deep: the redirection starts so late the attacker may already be
committed toward the source).
"""

from conftest import emit

from repro.core import safety_period
from repro.das import centralized_das_schedule
from repro.experiments import PAPER
from repro.slp import SlpParameters, build_slp_schedule
from repro.topology import paper_grid
from repro.verification import verify_schedule

SEEDS = 40
DISTANCES = (1, 2, 3, 4, 5, 6, 7)


def test_search_distance_sweep():
    grid = paper_grid(11)
    delta = safety_period(grid, PAPER.frame().period_length).periods

    bases = [centralized_das_schedule(grid, seed=s) for s in range(SEEDS)]
    base_caps = sum(
        not verify_schedule(grid, b, delta).slp_aware for b in bases
    )

    lines = [f"protectionless baseline: {100 * base_caps / SEEDS:.1f}%", ""]
    lines.append(f"{'SD':>4} {'capture':>9} {'reduction':>10}")
    best = None
    for sd in DISTANCES:
        caps = 0
        for seed, base in enumerate(bases):
            refined = build_slp_schedule(
                grid, SlpParameters(search_distance=sd), seed=seed, baseline=base
            ).schedule
            caps += not verify_schedule(grid, refined, delta).slp_aware
        reduction = 1 - caps / base_caps if base_caps else 0.0
        best = max(best or 0.0, reduction)
        lines.append(f"{sd:>4} {100 * caps / SEEDS:>8.1f}% {100 * reduction:>9.1f}%")
    emit(f"Ablation: search distance ({SEEDS} seeds, 11x11)", "\n".join(lines))

    assert base_caps > 0
    assert best is not None and best > 0.2

    build_slp_schedule(
        grid, SlpParameters(search_distance=3), seed=0, baseline=bases[0]
    )
