"""Convergecast quality metrics.

The DAS exists to deliver every node's reading to the sink once per
period; these metrics quantify how well a schedule does that under a
given noise model.  They are not reported in the paper's evaluation
(which focuses on capture ratio) but they guard the reproduction: a
refinement that broke aggregation would be an invalid trade, and the
tests assert it does not.
"""

from __future__ import annotations

from typing import Sequence

from ..app import OperationalResult
from ..errors import ConfigurationError
from ..records import Record


class AggregationStats(Record):
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


def aggregation_stats(results: Sequence[OperationalResult]) -> AggregationStats:
    """Fold the per-run aggregation ratios into :class:`AggregationStats`."""
    if not results:
        raise ConfigurationError("cannot aggregate zero runs")
    from statistics import fmean, pstdev  # deferred: off the CLI start-up path

    ratios = [float(r.aggregation_ratio) for r in results]
    return AggregationStats(
        runs=len(results),
        mean_ratio=fmean(ratios),
        min_ratio=min(ratios),
        max_ratio=max(ratios),
        # The population deviation, not the sample one (``stdev``).
        std_ratio=pstdev(ratios),
    )
