"""Sweeping scenarios through the experiment engine.

:class:`ScenarioRunner` lowers a :class:`~repro.scenarios.ScenarioSpec`
onto the experiment runner: build the topology, lower the spec to an
:class:`~repro.experiments.ExperimentConfig` (which carries the source
plan and perturbations) with :func:`~repro.scenarios.lower_job`, sweep
it serially or on the pool :func:`~repro.experiments.plan_pool` picks
and wrap the outcome with the scenario-level metrics (per-source
capture ratios, first-capture aggregation).

Determinism contract: a scenario swept with ``workers=N`` produces the
same per-run results, the same aggregate statistics and — because
:meth:`ScenarioOutcome.to_json` contains no wall-clock data — the very
same bytes of JSON as the serial sweep.  ``tests/test_scenarios.py``
enforces this for every registered scenario.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from ..experiments.options import plan_pool
from ..experiments.runner import ExperimentRunner
from ..metrics.capture import first_capture_stats, per_source_capture_stats
from ..records import Record, asdict, replace
from .registry import get_scenario
from .spec import ScenarioSpec, lower_job

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..app import OperationalResult
    from ..experiments import (
        ExperimentConfig,
        ExperimentOutcome,
        FailedRun,
        GuardReport,
    )
    from ..metrics import CaptureStats, FirstCaptureStats, PerSourceCapture
    from ..topology import NodeId


class ScenarioOutcome(Record):
    """All runs of one scenario sweep plus scenario-level aggregation."""

    spec: ScenarioSpec
    topology_name: str
    config: ExperimentConfig
    results: Tuple[OperationalResult, ...]
    stats: CaptureStats
    per_source: Tuple[PerSourceCapture, ...]
    first_capture: FirstCaptureStats
    failures: Tuple[FailedRun, ...] = ()
    guard: Optional[GuardReport] = None

    @classmethod
    def from_sweep(
        cls, spec: ScenarioSpec, config: ExperimentConfig, outcome: ExperimentOutcome
    ) -> "ScenarioOutcome":
        """The scenario-level view of a sweep of ``spec`` lowered to
        ``config``: however its seeds travelled (serial, pooled,
        resumed or through the service), a sweep's report is built
        here."""
        return cls(
            spec=spec,
            topology_name=outcome.topology_name,
            config=config,
            results=tuple(outcome.results),
            stats=outcome.stats,
            per_source=per_source_capture_stats(outcome.results),
            first_capture=first_capture_stats(outcome.results),
            failures=tuple(outcome.failures),
            guard=outcome.guard,
        )

    @property
    def source_pool(self) -> Tuple[NodeId, ...]:
        """The resolved source nodes of the sweep."""
        return self.spec.resolved_sources()

    def run_seeds(self) -> Tuple[int, ...]:
        """The seed of each entry of :attr:`results`, in order.

        Normally ``base_seed .. base_seed + repeats - 1``; when
        supervised execution quarantined seeds, those are missing from
        the middle and ``results`` holds only the survivors.
        """
        failed = {f.seed for f in self.failures}
        base = self.config.base_seed
        return tuple(
            seed
            for seed in range(base, base + self.config.repeats)
            if seed not in failed
        )

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready report of the sweep.

        Deliberately excludes anything non-deterministic (timings,
        hosts, dates): two sweeps of the same scenario and seeds must
        serialise to identical bytes whether run serially or across a
        worker pool.
        """
        spec = self.spec
        seeds = self.run_seeds()
        report: Dict[str, object] = {
            "scenario": spec.name,
            "description": spec.description,
            "topology": {
                "family": spec.topology.family,
                "size": spec.topology.size,
                "name": self.topology_name,
            },
            "workload": {
                "kind": spec.workload_kind(),
                "sources": list(self.source_pool),
                "source_rotation_period": spec.source_rotation_period,
                "perturbations": [repr(p) for p in spec.perturbations],
            },
            "algorithm": spec.algorithm,
            "search_distance": spec.search_distance,
            "attacker": (
                spec.attacker.describe() if spec.attacker is not None else "paper"
            ),
            "noise": spec.noise,
            "seeds": {
                "repeats": self.config.repeats,
                "base_seed": self.config.base_seed,
            },
            "stats": asdict(self.stats),
            "per_source": [asdict(entry) for entry in self.per_source],
            "first_capture": asdict(self.first_capture),
            "runs": [
                self._run_row(seed, result)
                for seed, result in zip(seeds, self.results)
            ],
        }
        # Emitted only when present: a clean sweep's report stays
        # byte-identical to what it was before supervision existed.
        if self.failures:
            report["failures"] = [asdict(failure) for failure in self.failures]
        if self.guard is not None:
            report["guard"] = asdict(self.guard)
        return report

    def _run_row(self, seed: int, result: OperationalResult) -> Dict[str, object]:
        return {
            "seed": seed,
            "captured": result.captured,
            "captured_source": result.captured_source,
            "capture_period": result.capture_period,
            "capture_time": result.capture_time,
            "periods_run": result.periods_run,
            "safety_periods": result.safety_periods,
            "attacker_moves": max(len(result.attacker_path) - 1, 0),
            "messages_sent": result.messages_sent,
            "aggregation_ratio": result.aggregation_ratio,
        }

    def to_json(self) -> str:
        """The report serialised canonically (sorted keys, 2-space indent)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_jsonl(self) -> str:
        """One JSON line per run, each carrying the scenario name."""
        lines = []
        for seed, result in zip(self.run_seeds(), self.results):
            row = {"scenario": self.spec.name}
            row.update(self._run_row(seed, result))
            lines.append(json.dumps(row, sort_keys=True))
        return "\n".join(lines) + "\n"


class ScenarioRunner:
    """Runs named or ad-hoc scenarios, serially or across processes.

    Parameters
    ----------
    workers:
        Worker processes per sweep (the CLI convention: ``None``/``1``
        = serial, ``0`` = one per CPU).  Fanning out changes nothing
        but wall-clock time; see the module docstring.  The requested
        count passes through :func:`~repro.experiments.plan_workers`,
        which falls back to the serial engine when a pool would only
        add overhead (more workers than cores, or a sweep too small to
        amortise dispatch).
    kernel:
        Operational engine override: ``"fast"`` (the table lane),
        ``"legacy"`` (the oracle) or ``None`` for the
        engine default; bit-identical whichever is chosen.
    setup_kernel:
        Setup-phase engine override for scenarios whose schedules come
        from the distributed protocols (``"fast"``/``"legacy"``/``None``
        for the engine default); bit-identical whichever is chosen and
        ignored by centralised builds.
    use_schedule_cache:
        Whether sweeps may reuse memoised schedules (identical either
        way); ``False`` is the CLI's ``--no-schedule-cache``.
    checkpoint:
        Directory for the per-seed result store (the CLI's
        ``--checkpoint``): completed seeds are persisted as they land,
        so an interrupted sweep can restart from where it stopped.
    resume:
        Reuse results already in the checkpoint store instead of
        clearing it first (the CLI's ``--resume``).  The merged report
        is bit-identical to an uninterrupted sweep.
    guard:
        ``"differential"`` re-runs a sample of each sweep's seeds on
        the legacy engines; on divergence a reproducer bundle is
        written and the whole sweep degrades to legacy.
    chunk_timeout:
        The pooled sweep's lease timeout: seconds a worker may hold a
        shard without landing a seed before it is presumed hung,
        killed, charged an attempt and replaced (``None`` = wait
        forever).
    progress:
        Render live sweep progress on stderr (seeds completed, runs/s,
        ETA, retry ticker).  The reporter is TTY-aware — with stderr
        redirected it stays silent — and never touches the report
        bytes; the CLI passes ``not --quiet``.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        kernel: Optional[str] = None,
        setup_kernel: Optional[str] = None,
        use_schedule_cache: bool = True,
        checkpoint: Optional[Path] = None,
        resume: bool = False,
        guard: Optional[str] = None,
        chunk_timeout: Optional[float] = None,
        progress: bool = False,
    ) -> None:
        self._workers = workers
        self._kernel = kernel
        self._setup_kernel = setup_kernel
        self._use_schedule_cache = use_schedule_cache
        self._checkpoint = None
        if checkpoint:
            from ..experiments.resilience import SweepCheckpoint

            self._checkpoint = SweepCheckpoint(checkpoint)
        self._resume = resume
        self._guard = guard
        self._chunk_timeout = chunk_timeout
        self._progress = progress

    def run(
        self,
        scenario: Union[str, ScenarioSpec],
        seeds: Optional[int] = None,
        base_seed: Optional[int] = None,
    ) -> ScenarioOutcome:
        """Sweep one scenario.

        Parameters
        ----------
        scenario:
            A registry name or an ad-hoc :class:`ScenarioSpec`.
        seeds:
            Override the spec's ``repeats`` (the CLI's ``--seeds``).
        base_seed:
            Override the spec's first seed.
        """
        spec = get_scenario(scenario) if isinstance(scenario, str) else scenario
        topology, config = lower_job(
            spec, seeds, base_seed, self._kernel, self._setup_kernel
        )
        if not self._use_schedule_cache:
            config = replace(config, use_schedule_cache=False)
        reporter = None
        on_result = None
        if self._progress:
            from ..telemetry import ProgressReporter

            reporter = ProgressReporter(
                total=config.repeats, label=f"{spec.name}: "
            )
            on_result = reporter.on_result
        pool = plan_pool(
            self._workers, config.repeats, topology, self._chunk_timeout
        )
        try:
            outcome = ExperimentRunner(topology, pool=pool).run(
                config,
                on_result=on_result,
                checkpoint=self._checkpoint,
                resume=self._resume,
                guard=self._guard,
            )
        finally:
            if reporter is not None:
                reporter.finish()
        return ScenarioOutcome.from_sweep(spec, config, outcome)

    def compare(
        self,
        scenarios: Sequence[Union[str, ScenarioSpec]],
        seeds: Optional[int] = None,
        base_seed: Optional[int] = None,
    ) -> List[ScenarioOutcome]:
        """Sweep several scenarios with the same seed settings."""
        return [self.run(s, seeds=seeds, base_seed=base_seed) for s in scenarios]


def format_comparison(outcomes: Sequence[ScenarioOutcome]) -> str:
    """Render a scenario comparison as a fixed-width table."""
    header = (
        f"{'scenario':<22} {'workload':<22} {'runs':>4} "
        f"{'capture':>8} {'mean period':>12} {'aggregation':>12}"
    )
    lines = [header, "-" * len(header)]
    for outcome in outcomes:
        stats = outcome.stats
        mean_period = (
            f"{stats.mean_capture_period:.1f}"
            if stats.mean_capture_period is not None
            else "-"
        )
        aggregation = sum(r.aggregation_ratio for r in outcome.results) / len(
            outcome.results
        )
        lines.append(
            f"{outcome.spec.name:<22} {outcome.spec.workload_kind():<22} "
            f"{stats.runs:>4} {stats.capture_ratio:>8.1%} "
            f"{mean_period:>12} {aggregation:>12.1%}"
        )
    return "\n".join(lines)
