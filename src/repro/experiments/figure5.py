"""Figure 5 — capture ratio vs network size, at search distances 3 and 5.

:func:`run_figure5` regenerates one panel of the figure: for each grid
size it measures the capture ratio of protectionless DAS and SLP DAS
over repeated seeded runs.  :func:`format_figure5` renders the series
as the text equivalent of the paper's bar chart, and
:func:`headline_reduction` computes the paper's summary statistic
("the SLP-aware DAS protocol reduces the capture ratio by 50%").
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

from ..attacker import AttackerSpec
from ..errors import ConfigurationError
from ..metrics import CaptureStats
from ..topology import paper_grid
from .config import PAPER, PAPER_SIZES, PaperParameters
from .parallel import ParallelExperimentRunner
from .resilience import FailedRun, SweepCheckpoint
from .runner import PROTECTIONLESS, SLP, ExperimentConfig, ExperimentRunner

#: Paper reference values read off Figure 5 (approximate, for the
#: paper-vs-measured table in EXPERIMENTS.md, not for assertions).
PAPER_FIGURE5_REFERENCE = {
    3: {11: (0.32, 0.16), 15: (0.29, 0.15), 21: (0.18, 0.09)},
    5: {11: (0.32, 0.15), 15: (0.29, 0.14), 21: (0.18, 0.10)},
}


@dataclass(frozen=True)
class Figure5Cell:
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


@dataclass(frozen=True)
class Figure5Result:
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


def run_figure5(
    search_distance: int,
    sizes: Sequence[int] = PAPER_SIZES,
    repeats: int = 30,
    base_seed: int = 0,
    noise: object = "casino",
    attacker: Optional[AttackerSpec] = None,
    parameters: PaperParameters = PAPER,
    workers: Optional[int] = None,
    kernel: Optional[str] = None,
    setup_kernel: Optional[str] = None,
    use_schedule_cache: bool = True,
    use_distributed: bool = False,
    checkpoint: Optional[Path] = None,
    resume: bool = False,
    guard: Optional[str] = None,
    chunk_timeout: Optional[float] = None,
    on_result=None,
) -> Figure5Result:
    """Regenerate one panel of Figure 5.

    Parameters mirror the paper's setup; reduce ``repeats`` or ``sizes``
    for quick runs (the benchmarks do).  ``workers`` fans the seed
    sweeps out over that many processes (``None`` = serial); results are
    identical either way.  ``kernel``, ``setup_kernel`` and
    ``use_schedule_cache`` are the bisection knobs of the performance
    layer (also identical either way): the protectionless cells of the
    two panels share one schedule per (size, seed) through the cache.
    ``use_distributed`` builds every schedule with the full
    message-level setup protocols instead of the centralised pipeline.

    ``checkpoint`` names a directory where completed per-seed results
    are persisted as they land; with ``resume=True`` an interrupted
    panel restarts only the missing seeds and reproduces the
    uninterrupted panel bit-for-bit.  ``guard="differential"`` audits a
    sample of every sweep against the legacy engines and degrades a
    diverging cell to them; ``chunk_timeout`` bounds how long one
    parallel chunk may run before its worker is presumed hung.
    ``on_result(seed, result)`` fires after every completed run across
    all sweeps of the panel (the CLI's live progress hook).
    """
    store = SweepCheckpoint(checkpoint) if checkpoint is not None else None
    bundle_dir = (
        str(Path(checkpoint) / "divergence") if checkpoint is not None else "divergence"
    )
    protectionless = ExperimentConfig(
        algorithm=PROTECTIONLESS,
        repeats=repeats,
        base_seed=base_seed,
        noise=noise,
        attacker=attacker,
        parameters=parameters,
        kernel=kernel,
        setup_kernel=setup_kernel,
        use_schedule_cache=use_schedule_cache,
        use_distributed=use_distributed,
    )
    configs = (
        protectionless,
        replace(protectionless, algorithm=SLP, search_distance=search_distance),
    )
    cells = []
    for size in sizes:
        topology = paper_grid(size)
        # Each size's runner owns its pool (started and stopped here);
        # both algorithms of the cell share it.
        runner = (
            ExperimentRunner(topology)
            if workers is None
            else ParallelExperimentRunner(
                topology, workers=workers, chunk_timeout=chunk_timeout
            )
        )
        with runner:
            base, slp = [
                runner.run_resilient(
                    config,
                    checkpoint=store,
                    resume=resume,
                    guard=guard,
                    bundle_dir=bundle_dir,
                    on_result=on_result,
                )
                for config in configs
            ]
        cells.append(
            Figure5Cell(
                size=size,
                protectionless=base.stats,
                slp=slp.stats,
                failures=tuple(base.failures) + tuple(slp.failures),
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


def headline_reduction(
    repeats: int = 30,
    sizes: Sequence[int] = PAPER_SIZES,
    base_seed: int = 0,
    noise: object = "casino",
    workers: Optional[int] = None,
) -> Dict[int, float]:
    """The §VI-E headline: mean capture-ratio reduction per search
    distance (the paper reports ~50%)."""
    return {
        sd: run_figure5(
            sd,
            sizes=sizes,
            repeats=repeats,
            base_seed=base_seed,
            noise=noise,
            workers=workers,
        ).mean_reduction
        for sd in PAPER.search_distances
    }
