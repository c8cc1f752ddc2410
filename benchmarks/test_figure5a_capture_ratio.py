"""Experiment ``fig5a``: capture ratio vs network size, search distance 3.

Regenerates the left panel of Figure 5: protectionless DAS vs SLP DAS
on the 11x11, 15x15 and 21x21 grids under casino-lab-style noise.  The
assertion is on the paper's *shape*: SLP DAS captures less, overall and
on a majority of sizes (per-size, small-sample noise is tolerated).
"""

from conftest import emit

from repro.experiments import ExperimentConfig, ExperimentRunner, format_figure5
from repro.topology import paper_grid


def test_figure5a_series(figure5_panel_a):
    emit("Figure 5a (regenerated)", format_figure5(figure5_panel_a))
    # Benchmark the per-panel aggregation/rendering step.
    format_figure5(figure5_panel_a)

    total_base = sum(c.protectionless.captures for c in figure5_panel_a.cells)
    total_slp = sum(c.slp.captures for c in figure5_panel_a.cells)
    assert total_base > 0, "protectionless DAS was never captured"
    assert total_slp < total_base, (
        f"SLP DAS did not reduce captures: {total_slp} vs {total_base}"
    )
    # Paper: reduction around 50%; accept the broad shape.
    assert figure5_panel_a.mean_reduction > 0.15

    improved = sum(
        1
        for cell in figure5_panel_a.cells
        if cell.slp.captures <= cell.protectionless.captures
    )
    assert improved >= 2, "SLP must win on a majority of grid sizes"


def test_figure5a_one_run_cost():
    """Benchmark one protectionless evaluation run on the 11x11 grid —
    the unit of work Figure 5 aggregates."""
    runner = ExperimentRunner(paper_grid(11))
    config = ExperimentConfig(algorithm="protectionless", repeats=1, noise="casino")
    result = runner.run_once(config, seed=0)
    assert result.periods_run >= 1
