"""Experiment ``headline``: §VI-E — "the resulting SLP-aware DAS
protocol reduces the capture ratio by 50%".

Pools both Figure 5 panels and checks the aggregate reduction.  The
deterministic formal verifier supplies a high-repeat estimate cheaply
(it agrees exactly with the ideal-link runtime; see the test-suite),
so this bench also reports a 120-seed verifier-based figure alongside
the simulation-based panels.
"""

from conftest import emit

from repro.core import safety_period
from repro.das import centralized_das_schedule
from repro.experiments import PAPER
from repro.slp import SlpParameters, build_slp_schedule
from repro.topology import paper_grid
from repro.verification import verify_schedule

VERIFIER_SEEDS = 120


def test_headline_reduction_simulation(figure5_panel_a, figure5_panel_b):
    pooled_base = sum(
        c.protectionless.captures
        for panel in (figure5_panel_a, figure5_panel_b)
        for c in panel.cells
    )
    pooled_slp = sum(
        c.slp.captures
        for panel in (figure5_panel_a, figure5_panel_b)
        for c in panel.cells
    )
    reduction = 1 - pooled_slp / pooled_base if pooled_base else 0.0
    emit(
        "Headline claim (simulation, pooled over both panels)",
        f"protectionless captures: {pooled_base}\n"
        f"SLP DAS captures:        {pooled_slp}\n"
        f"pooled reduction:        {100 * reduction:.1f}%  (paper: ~50%)",
    )
    assert pooled_base > 0
    assert reduction > 0.2


def test_headline_reduction_verifier():
    """High-repeat deterministic estimate on the 11x11 grid, with the
    per-seed pipeline as the benchmarked unit."""
    grid = paper_grid(11)
    delta = safety_period(grid, PAPER.frame().period_length).periods

    def one_seed(seed: int):
        base = centralized_das_schedule(grid, seed=seed)
        refined = build_slp_schedule(
            grid, SlpParameters(3), seed=seed, baseline=base
        ).schedule
        return (
            not verify_schedule(grid, base, delta).slp_aware,
            not verify_schedule(grid, refined, delta).slp_aware,
        )

    one_seed(0)

    base_caps = slp_caps = 0
    for seed in range(VERIFIER_SEEDS):
        b, s = one_seed(seed)
        base_caps += b
        slp_caps += s
    reduction = 1 - slp_caps / base_caps if base_caps else 0.0
    emit(
        f"Headline claim (verifier, {VERIFIER_SEEDS} seeds, 11x11)",
        f"protectionless: {100 * base_caps / VERIFIER_SEEDS:.1f}%  "
        f"SLP: {100 * slp_caps / VERIFIER_SEEDS:.1f}%  "
        f"reduction: {100 * reduction:.1f}%",
    )
    assert base_caps > 0
    assert reduction > 0.25
