"""Experiment ``fig5b``: capture ratio vs network size, search distance 5.

Right panel of Figure 5 — as ``fig5a`` with the deeper search.
"""

from conftest import emit

from repro.experiments import ExperimentConfig, ExperimentRunner, format_figure5
from repro.topology import paper_grid


def test_figure5b_series(figure5_panel_b):
    emit("Figure 5b (regenerated)", format_figure5(figure5_panel_b))
    # Benchmark the per-panel aggregation/rendering step.
    format_figure5(figure5_panel_b)

    total_base = sum(c.protectionless.captures for c in figure5_panel_b.cells)
    total_slp = sum(c.slp.captures for c in figure5_panel_b.cells)
    assert total_base > 0
    assert total_slp < total_base
    assert figure5_panel_b.mean_reduction > 0.15


def test_figure5b_one_run_cost():
    """Benchmark one SLP evaluation run (SD = 5) on the 11x11 grid."""
    runner = ExperimentRunner(paper_grid(11))
    config = ExperimentConfig(
        algorithm="slp", search_distance=5, repeats=1, noise="casino"
    )
    result = runner.run_once(config, seed=0)
    assert result.periods_run >= 1
