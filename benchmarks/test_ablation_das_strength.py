"""Ablation ``abl-das``: strong vs weak DAS across the pipeline.

Quantifies the strong/weak distinction the paper formalises: Phase 1
output satisfies the strong definition, refinement deliberately trades
strongness for privacy while preserving the weak definition — the
precise trade Definitions 2/3/5 exist to license.
"""

from conftest import emit

from repro.core import check_strong_das, check_weak_das
from repro.das import centralized_das_schedule
from repro.slp import SlpParameters, build_slp_schedule
from repro.topology import paper_grid

SEEDS = 30


def test_das_strength_rates():
    grid = paper_grid(11)
    base_strong = base_weak = refined_strong = refined_weak = 0
    for seed in range(SEEDS):
        base = centralized_das_schedule(grid, seed=seed)
        refined = build_slp_schedule(
            grid, SlpParameters(3), seed=seed, baseline=base
        ).schedule
        base_strong += check_strong_das(grid, base).ok
        base_weak += check_weak_das(grid, base).ok
        refined_strong += check_strong_das(grid, refined).ok
        refined_weak += check_weak_das(grid, refined).ok

    emit(
        f"Ablation: DAS strength ({SEEDS} seeds, 11x11)",
        f"{'schedule':<16} {'strong DAS':>11} {'weak DAS':>9}\n"
        f"{'baseline':<16} {100 * base_strong / SEEDS:>10.1f}% "
        f"{100 * base_weak / SEEDS:>8.1f}%\n"
        f"{'SLP-refined':<16} {100 * refined_strong / SEEDS:>10.1f}% "
        f"{100 * refined_weak / SEEDS:>8.1f}%",
    )

    assert base_strong == SEEDS          # Phase 1 always strong
    assert refined_weak == SEEDS         # refinement preserves weak
    assert refined_strong < SEEDS        # strongness is the price paid

    schedule = centralized_das_schedule(grid, seed=0)
    check_strong_das(grid, schedule)
