"""Figure 5 — capture ratio vs network size, at search distances 3 and 5.

:func:`run_figure5` regenerates one panel of the figure: for each grid
size it measures the capture ratio of protectionless DAS and SLP DAS
over repeated seeded runs, each cell as two scenario specs
(:func:`figure5_cell_specs`) on one
:class:`~repro.scenarios.ScenarioRunner`.  :func:`format_figure5`
renders the series as the text equivalent of the paper's bar chart.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence, Tuple

from ..errors import ConfigurationError, invalid_field
from ..metrics import CaptureStats
from ..records import Record, replace
from .config import PAPER_SIZES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..scenarios import ScenarioSpec
    from .resilience import FailedRun

#: Paper reference values read off Figure 5 (approximate, for reading a
#: regenerated panel against the paper, not for assertions).
PAPER_FIGURE5_REFERENCE = {
    3: {11: (0.32, 0.16), 15: (0.29, 0.15), 21: (0.18, 0.09)},
    5: {11: (0.32, 0.15), 15: (0.29, 0.14), 21: (0.18, 0.10)},
}


class Figure5Cell(Record):
    """One (size, algorithm-pair) measurement of the figure.

    ``failures`` is empty unless supervised execution quarantined seeds
    in either sweep of the cell; ``degraded`` records that the
    divergence guard re-ran the cell on the legacy engines.
    """

    size: int
    protectionless: CaptureStats
    slp: CaptureStats
    failures: Tuple[FailedRun, ...] = ()
    degraded: bool = False

    @property
    def reduction(self) -> float:
        """Relative capture reduction SLP achieves at this size."""
        return self.slp.reduction_versus(self.protectionless)


class Figure5Result(Record):
    """One full panel (one search distance) of Figure 5."""

    search_distance: int
    repeats: int
    cells: Tuple[Figure5Cell, ...]

    def cell(self, size: int) -> Figure5Cell:
        """The measurement for one grid size."""
        for cell in self.cells:
            if cell.size == size:
                return cell
        raise ConfigurationError(f"no cell for size {size} in this panel")

    @property
    def mean_reduction(self) -> float:
        """Mean relative reduction across sizes — the headline number."""
        reductions = [c.reduction for c in self.cells if c.protectionless.captures]
        if not reductions:
            return 0.0
        return sum(reductions) / len(reductions)


def figure5_cell_specs(
    size: int,
    search_distance: int = 3,
    repeats: int = 30,
    base_seed: int = 0,
    noise: str = "casino",
) -> Tuple[ScenarioSpec, ScenarioSpec]:
    """The protectionless and SLP scenario specs of one Figure 5 cell:
    the registered ``paper-baseline`` and ``paper-baseline-slp`` moved
    to a ``size`` × ``size`` grid, so the figure and ``scenario run``
    cannot drift.  At size 11, search distance 3 and the registered
    noise they sweep exactly what those scenarios sweep, and share
    their checkpoint store."""
    from ..scenarios import TopologySpec, get_scenario

    return tuple(
        replace(
            get_scenario(name),
            name=f"{name}-{size}",
            topology=TopologySpec("grid", size),
            search_distance=search_distance,
            noise=noise,
            repeats=repeats,
            base_seed=base_seed,
        )
        for name in ("paper-baseline", "paper-baseline-slp")
    )


def run_figure5(
    search_distance: int,
    sizes: Sequence[int] = PAPER_SIZES,
    repeats: int = 30,
    base_seed: int = 0,
    noise: str = "casino",
    **runner_options,
) -> Figure5Result:
    """Regenerate one panel of Figure 5.

    Parameters mirror the paper's setup; reduce ``repeats`` or ``sizes``
    for quick runs (the benchmarks do).  Each cell's two
    :func:`figure5_cell_specs` run on one
    :class:`~repro.scenarios.ScenarioRunner` built from
    ``runner_options`` (``workers``, the engine and cache switches,
    ``distributed``, ``checkpoint``/``resume``, ``guard``,
    ``chunk_timeout`` and ``progress``); none of them changes a
    result.
    """
    odd = [size for size in sizes if size not in PAPER_SIZES]
    if odd:
        raise invalid_field(
            "run_figure5",
            "sizes",
            odd,
            f"the paper evaluates grids of size {PAPER_SIZES}",
        )
    from ..scenarios import ScenarioRunner

    specs = [
        figure5_cell_specs(size, search_distance, repeats, base_seed, noise)
        for size in sizes
    ]
    runner = ScenarioRunner(**runner_options)
    cells = []
    for size, cell_specs in zip(sizes, specs):
        base, slp = [runner.run(spec) for spec in cell_specs]
        cells.append(
            Figure5Cell(
                size=size,
                protectionless=base.stats,
                slp=slp.stats,
                failures=base.failures + slp.failures,
                degraded=any(
                    outcome.guard is not None and outcome.guard.degraded
                    for outcome in (base, slp)
                ),
            )
        )
    return Figure5Result(
        search_distance=search_distance,
        repeats=repeats,
        cells=tuple(cells),
    )


def format_figure5(result: Figure5Result) -> str:
    """Render a panel as the text analogue of the paper's bar chart."""
    lines = [
        f"Figure 5{'a' if result.search_distance == 3 else 'b'}: "
        f"capture ratio (%), search distance = {result.search_distance}, "
        f"{result.repeats} runs per bar",
        "",
        f"{'Size':<6} {'Protectionless':>16} {'SLP DAS':>10} {'Reduction':>11}",
        "-" * 47,
    ]
    for cell in result.cells:
        lines.append(
            f"{cell.size:<6} "
            f"{100 * cell.protectionless.capture_ratio:>15.1f}% "
            f"{100 * cell.slp.capture_ratio:>9.1f}% "
            f"{100 * cell.reduction:>10.1f}%"
        )
    lines.append("-" * 47)
    lines.append(f"mean reduction: {100 * result.mean_reduction:.1f}%")
    return "\n".join(lines)
