"""Capture-ratio statistics — the metric of Figure 5.

§VI-D: "Capture ratio is the ratio of runs in which the attacker
manages to capture the source before the safety period ends."

Scenario workloads generalise the metric along two axes this module
also covers: *per-source* capture ratios (which member of a
multi-source pool falls, and how often) and *first-capture*
aggregation (when, in periods and seconds, the first capture of a run
happens across a sweep).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..app import OperationalResult
from ..errors import ConfigurationError
from ..records import Record
from ..topology import NodeId


class CaptureStats(Record):
    """Aggregated capture statistics over repeated runs.

    Attributes
    ----------
    runs:
        Number of repeats aggregated.
    captures:
        Runs in which the attacker reached the source in time.
    capture_ratio:
        ``captures / runs`` — the y-axis of Figure 5.
    mean_capture_period:
        Mean period index of the captures (``None`` with zero captures).
    mean_attacker_moves:
        Mean number of attacker moves per run, captured or not.
    """

    runs: int
    captures: int
    capture_ratio: float
    mean_capture_period: Optional[float]
    mean_attacker_moves: float

    def reduction_versus(self, baseline: "CaptureStats") -> float:
        """Relative capture-ratio reduction against ``baseline`` (the
        paper's headline: SLP DAS "reduces the capture ratio by 50%")."""
        if baseline.capture_ratio == 0.0:
            return 0.0
        return 1.0 - self.capture_ratio / baseline.capture_ratio


def capture_stats(results: Sequence[OperationalResult]) -> CaptureStats:
    """Fold repeated operational runs into :class:`CaptureStats`."""
    if not results:
        raise ConfigurationError("cannot aggregate zero runs")
    captures = [r for r in results if r.captured]
    periods = [r.capture_period for r in captures if r.capture_period is not None]
    moves = [max(len(r.attacker_path) - 1, 0) for r in results]
    return CaptureStats(
        runs=len(results),
        captures=len(captures),
        capture_ratio=len(captures) / len(results),
        mean_capture_period=(sum(periods) / len(periods)) if periods else None,
        mean_attacker_moves=sum(moves) / len(moves),
    )


class PerSourceCapture(Record):
    """Capture statistics attributed to one member of the source pool.

    Attributes
    ----------
    source:
        The pool node these statistics describe.
    runs:
        Total runs aggregated (the denominator of the ratio — a run
        counts even when a *different* source fell).
    captures:
        Runs in which the attacker captured *this* source.
    capture_ratio:
        ``captures / runs`` for this source.
    mean_capture_period:
        Mean period index of this source's captures (``None`` if it
        never fell).
    """

    source: NodeId
    runs: int
    captures: int
    capture_ratio: float
    mean_capture_period: Optional[float]


def per_source_capture_stats(
    results: Sequence[OperationalResult],
) -> Tuple[PerSourceCapture, ...]:
    """Break a sweep's captures down by which source fell.

    The pool is the union of every run's ``source_pool`` (runs of one
    sweep share a pool, but the union keeps the function total); the
    result is ordered by node identifier.  With the paper's single
    static source this collapses to one entry whose ratio equals the
    overall capture ratio.
    """
    if not results:
        raise ConfigurationError("cannot aggregate zero runs")
    pool: set = set()
    for result in results:
        pool.update(result.source_pool)
    captures_by_source: Dict[NodeId, List[int]] = {node: [] for node in sorted(pool)}
    for result in results:
        if result.captured and result.captured_source is not None:
            captures_by_source.setdefault(result.captured_source, []).append(
                result.capture_period if result.capture_period is not None else 0
            )
    runs = len(results)
    return tuple(
        PerSourceCapture(
            source=node,
            runs=runs,
            captures=len(periods),
            capture_ratio=len(periods) / runs,
            mean_capture_period=(sum(periods) / len(periods)) if periods else None,
        )
        for node, periods in sorted(captures_by_source.items())
    )


class FirstCaptureStats(Record):
    """When the first capture of a run happens, aggregated over a sweep.

    With one source this mirrors :class:`CaptureStats`'s period mean;
    with several (or mobile) sources it is the figure of merit the
    per-source breakdown cannot give — how long the *network as a
    whole* kept every asset hidden.

    Attributes
    ----------
    runs, captures:
        As in :class:`CaptureStats`.
    mean_capture_period / mean_capture_time:
        Mean period index / simulated time of the first capture, over
        the captured runs (``None`` with zero captures).
    earliest_capture_period:
        The single fastest capture observed (``None`` likewise).
    """

    runs: int
    captures: int
    mean_capture_period: Optional[float]
    mean_capture_time: Optional[float]
    earliest_capture_period: Optional[int]


def first_capture_stats(
    results: Sequence[OperationalResult],
) -> FirstCaptureStats:
    """Aggregate the first capture event of each run across a sweep."""
    if not results:
        raise ConfigurationError("cannot aggregate zero runs")
    periods = [
        r.capture_period
        for r in results
        if r.captured and r.capture_period is not None
    ]
    times = [
        r.capture_time for r in results if r.captured and r.capture_time is not None
    ]
    captures = sum(1 for r in results if r.captured)
    return FirstCaptureStats(
        runs=len(results),
        captures=captures,
        mean_capture_period=(sum(periods) / len(periods)) if periods else None,
        mean_capture_time=(sum(times) / len(times)) if times else None,
        earliest_capture_period=min(periods) if periods else None,
    )
