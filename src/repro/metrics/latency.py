"""Convergecast quality metrics.

The DAS exists to deliver every node's reading to the sink once per
period; these metrics quantify how well a schedule does that under a
given noise model.  They are not reported in the paper's evaluation
(which focuses on capture ratio) but they guard the reproduction: a
refinement that broke aggregation would be an invalid trade, and the
tests assert it does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..app import OperationalResult
from ..errors import ConfigurationError


@dataclass(frozen=True)
class AggregationStats:
    """Sink-side aggregation completeness over repeated runs.

    Attributes
    ----------
    runs:
        Number of runs aggregated.
    mean_ratio:
        Mean fraction of readings the sink collected per period.
    min_ratio, max_ratio:
        Worst and best per-run means.
    std_ratio:
        Standard deviation across runs.
    """

    runs: int
    mean_ratio: float
    min_ratio: float
    max_ratio: float
    std_ratio: float

    @property
    def lossless(self) -> bool:
        """Whether every run achieved perfect aggregation."""
        return self.min_ratio >= 1.0 - 1e-12


def aggregation_stats(results: Sequence[OperationalResult]) -> AggregationStats:
    """Fold the per-run aggregation ratios into :class:`AggregationStats`."""
    if not results:
        raise ConfigurationError("cannot aggregate zero runs")
    import numpy as np  # deferred: keeps numpy off the CLI start-up path

    ratios = np.array([r.aggregation_ratio for r in results], dtype=float)
    return AggregationStats(
        runs=len(results),
        mean_ratio=float(ratios.mean()),
        min_ratio=float(ratios.min()),
        max_ratio=float(ratios.max()),
        std_ratio=float(ratios.std()),
    )


def schedule_latency_periods(max_slot: int, num_slots: int) -> float:
    """Worst-case collection latency in periods for a schedule whose
    deepest sender uses ``max_slot`` of a ``num_slots`` frame.

    Every reading generated at a period's start reaches the sink by the
    period's end in a valid DAS, so the latency is the fraction of the
    period until the last sender slot fires.
    """
    if num_slots < 1 or max_slot < 1:
        raise ConfigurationError("slot numbers must be positive")
    if max_slot > num_slots:
        raise ConfigurationError("max_slot cannot exceed the frame size")
    return max_slot / num_slots
