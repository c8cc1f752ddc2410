"""The repeated-run experiment engine behind every figure and table.

One *run* of an experiment (matching one TOSSIM execution in the paper)
is: build a schedule for the chosen algorithm under a fresh seed,
simulate the operational phase against the attacker, record the
outcome.  :class:`ExperimentRunner` sweeps seeds and aggregates runs
into :class:`~repro.metrics.CaptureStats`.

Schedules come from the seeded centralised pipeline by default — one
seed reproduces one plausible outcome of the distributed protocols at a
fraction of the cost (the distributed protocols are validated
separately; see DESIGN.md).  Passing ``use_distributed=True`` runs the
full message-level setup instead, which the examples demonstrate.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, Optional, Sequence, Tuple

from ..app import (
    KERNELS,
    OperationalResult,
    Perturbation,
    SourcePlan,
    run_operational_phase,
)
from ..attacker import AttackerSpec
from ..core import Schedule
from ..das.centralized import centralized_das_schedule
from ..das.kernels import resolve_setup_kernel
from ..errors import invalid_field
from ..metrics import CaptureStats, capture_stats
from ..simulator import CasinoLabNoise, NoiseModel
from ..slp.protocol import SlpParameters, build_slp_schedule
from ..telemetry import active_tracer, default_registry
from ..topology import Topology
from .config import PAPER, PaperParameters
from .options import FAULT_PLAN_ENV, GUARD_MODES
from .schedule_cache import (
    ScheduleCache,
    default_schedule_cache,
    schedule_cache_enabled,
    schedule_key,
    topology_fingerprint,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .resilience import FailedRun, GuardReport, SweepCheckpoint

def setup_protocols():
    """``(run_das_setup, SlpProtocolConfig, run_slp_setup)``: the
    message-level setup stack, imported on first use.  Only
    ``use_distributed`` sweeps run it, and no registered scenario is
    one.  :class:`~repro.experiments.ParallelExperimentRunner` calls
    this before it forks, so pool workers inherit the modules instead
    of each compiling them."""
    from ..das.protocol import run_das_setup
    from ..slp.distributed import SlpProtocolConfig, run_slp_setup

    return run_das_setup, SlpProtocolConfig, run_slp_setup


#: Algorithm identifiers (the two bars of Figure 5).
PROTECTIONLESS = "protectionless"
SLP = "slp"
ALGORITHMS = (PROTECTIONLESS, SLP)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment cell: topology × algorithm × parameters.

    Attributes
    ----------
    algorithm:
        :data:`PROTECTIONLESS` or :data:`SLP`.
    search_distance:
        ``SD`` for the SLP algorithm (ignored for protectionless).
    repeats:
        Number of seeded runs to aggregate.
    base_seed:
        Seed of the first run; run ``i`` uses ``base_seed + i``.
    noise:
        ``"casino"`` (default, the paper's noise), ``"ideal"``, or a
        concrete :class:`~repro.simulator.NoiseModel` instance.
    attacker:
        Attacker parameters; ``None`` = the paper's (1,0,1,s0,D).
    use_distributed:
        Build schedules with the full message-level protocols instead of
        the centralised pipeline.
    parameters:
        The Table I constants in force.
    source_plan:
        Which nodes hold the asset (``None`` = the topology's single
        designated source, the paper's workload).  Multi-source and
        mobile-source scenarios set this.
    perturbations:
        Scheduled mid-run changes (node death, sleeps, duty cycles)
        applied in every run of the sweep.
    max_periods:
        Override the safety-period budget per run (``None`` = Eq. 1).
    kernel:
        Operational-phase kernel: ``"fast"``, ``"legacy"`` or ``None``
        (the engine default, currently fast).  Both kernels are
        bit-identical; the knob exists so regressions can be bisected
        to a layer.  Carried on the config so parallel workers inherit
        the choice.
    setup_kernel:
        Setup-phase engine for distributed schedule builds
        (``use_distributed=True``): ``"fast"`` (the flat-round kernel
        of :mod:`repro.das.fast_setup`), ``"legacy"`` (the event heap)
        or ``None`` for the engine default.  Bit-identical either way;
        ignored by centralised builds.  Carried on the config so
        parallel workers inherit the choice.
    use_schedule_cache:
        Whether :meth:`ExperimentRunner.build_schedule` may reuse
        memoised schedules (identical either way — schedule building is
        deterministic).  Carried on the config for the same reason.
    schedule_jitter:
        Whether centralised Phase 1 builds draw TOSSIM-like random
        arrival-order priorities from the run seed (the default, and
        the paper's behaviour).  ``False`` uses identifier-ordered
        priorities: one canonical schedule per topology regardless of
        seed, which the schedule cache then keys *without* the seed —
        a 30-seed sweep builds once.
    telemetry:
        Whether runs record telemetry spans/metrics.  Stamped
        automatically when a :class:`~repro.telemetry.TelemetrySession`
        is active in the dispatching process, and carried on the config
        so pool workers instrument themselves and ship their spans back
        with each chunk.  Never affects results — instrumentation only
        reads clocks inside already-entered spans and never touches the
        RNG stream.
    """

    algorithm: str = PROTECTIONLESS
    search_distance: int = 3
    repeats: int = 30
    base_seed: int = 0
    noise: object = "casino"
    attacker: Optional[AttackerSpec] = None
    use_distributed: bool = False
    parameters: PaperParameters = field(default_factory=lambda: PAPER)
    source_plan: Optional[SourcePlan] = None
    perturbations: Tuple[Perturbation, ...] = ()
    max_periods: Optional[int] = None
    kernel: Optional[str] = None
    setup_kernel: Optional[str] = None
    use_schedule_cache: bool = True
    schedule_jitter: bool = True
    telemetry: bool = False

    @property
    def seeded_schedule(self) -> bool:
        """Whether schedule construction draws any randomness from the
        run seed.  Distributed builds always do (message timing), SLP
        always does (search/refinement tie-breaks); a centralised
        protectionless build only through the jittered priorities."""
        return (
            self.use_distributed
            or self.algorithm != PROTECTIONLESS
            or self.schedule_jitter
        )

    def __post_init__(self) -> None:
        if self.kernel is not None and self.kernel not in KERNELS:
            raise invalid_field(
                "ExperimentConfig",
                "kernel",
                self.kernel,
                f"pick one of {KERNELS} (or None for the default)",
            )
        resolve_setup_kernel(self.setup_kernel, "ExperimentConfig")
        if self.algorithm not in ALGORITHMS:
            raise invalid_field(
                "ExperimentConfig",
                "algorithm",
                self.algorithm,
                f"unknown algorithm; pick one of {ALGORITHMS}",
            )
        if self.repeats < 1:
            raise invalid_field(
                "ExperimentConfig",
                "repeats",
                self.repeats,
                "an experiment needs at least one repeat",
            )
        object.__setattr__(self, "perturbations", tuple(self.perturbations))
        if self.max_periods is not None and self.max_periods < 1:
            raise invalid_field(
                "ExperimentConfig",
                "max_periods",
                self.max_periods,
                "a run must cover at least one period",
            )

    def make_noise(self) -> Optional[NoiseModel]:
        """Instantiate a fresh noise model for one run."""
        if isinstance(self.noise, NoiseModel):
            return self.noise
        if self.noise == "casino":
            return CasinoLabNoise()
        if self.noise == "ideal":
            return None
        raise invalid_field(
            "ExperimentConfig", "noise", self.noise, "unknown noise spec"
        )


@dataclass(frozen=True)
class ExperimentOutcome:
    """All runs of one experiment cell plus their aggregation.

    ``failures`` is empty unless supervised execution had to quarantine
    seeds (see :mod:`repro.experiments.resilience`); ``results``/
    ``stats`` then cover the surviving seeds only, still in seed order.
    ``guard`` is set when a kernel-divergence guard audited the sweep.
    """

    config: ExperimentConfig
    topology_name: str
    results: Sequence[OperationalResult]
    stats: CaptureStats
    failures: Tuple[FailedRun, ...] = ()
    guard: Optional[GuardReport] = None


class ExperimentRunner:
    """Sweeps seeds for one topology and experiment configuration.

    Runs execute serially in-process; the drop-in
    :class:`~repro.experiments.ParallelExperimentRunner` fans the same
    sweep out over worker processes with identical results.

    ``schedule_cache`` overrides the process-default
    :class:`~repro.experiments.schedule_cache.ScheduleCache` consulted
    by :meth:`build_schedule`; pass an explicit cache to isolate sweeps
    or ``None`` to share the default (the normal mode — cache hits are
    what make identity re-sweeps and algorithm comparisons cheap).
    """

    def __init__(
        self,
        topology: Topology,
        schedule_cache: Optional[ScheduleCache] = None,
    ) -> None:
        self._topology = topology
        self._schedule_cache = schedule_cache
        self._fingerprint: Optional[str] = None

    @property
    def topology(self) -> Topology:
        """The network under test."""
        return self._topology

    def close(self) -> None:
        """Release sweep resources.  A no-op for the serial engine; kept
        so serial and parallel runners share a lifecycle protocol."""

    def __enter__(self) -> "ExperimentRunner":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Schedule construction
    # ------------------------------------------------------------------
    def build_schedule(self, config: ExperimentConfig, seed: int) -> Schedule:
        """Build (or fetch) the run's schedule for the configured algorithm.

        Construction is deterministic in ``(topology content, algorithm,
        parameters, seed)``, so results are memoised in a
        content-addressed :class:`ScheduleCache` — a cached build and a
        fresh one are the same immutable object value.  Disabled per
        sweep via ``config.use_schedule_cache`` or process-wide via
        :func:`~repro.experiments.schedule_cache.configure_schedule_cache`.
        """
        cache = self._schedule_cache
        if cache is None and schedule_cache_enabled():
            cache = default_schedule_cache()
        if cache is None or not config.use_schedule_cache:
            return self._traced_build(config, seed)
        key = self.schedule_key_for(config, seed)
        return cache.get_or_build(key, lambda: self._traced_build(config, seed))

    def schedule_key_for(self, config: ExperimentConfig, seed: int) -> Tuple:
        """The content-addressed cache key of one run's schedule build.

        Public so the parallel runner can ship the parent's already-built
        entries to worker processes under exactly the keys the workers
        will look up."""
        if self._fingerprint is None:
            self._fingerprint = topology_fingerprint(self._topology)
        return schedule_key(
            self._fingerprint,
            self._topology,
            config.algorithm,
            seed,
            config.search_distance,
            config.use_distributed,
            config.parameters,
            config.noise,
            seeded=config.seeded_schedule,
            jitter=config.schedule_jitter,
            setup_kernel=(
                resolve_setup_kernel(config.setup_kernel, "ExperimentConfig")
                if config.use_distributed
                else None
            ),
        )

    def _traced_build(self, config: ExperimentConfig, seed: int) -> Schedule:
        """``_build_schedule`` under a ``schedule.build`` span.

        Only actual builds are spanned — a cache hit never reaches
        this, so the trace shows real construction work."""
        tracer = active_tracer()
        if tracer is None:
            return self._build_schedule(config, seed)
        with tracer.span(
            "schedule.build", algorithm=config.algorithm, seed=seed
        ):
            return self._build_schedule(config, seed)

    def _build_schedule(self, config: ExperimentConfig, seed: int) -> Schedule:
        if config.use_distributed:
            return self._run_setup(config, seed)
        params = config.parameters
        if config.algorithm == PROTECTIONLESS:
            return centralized_das_schedule(
                self._topology,
                num_slots=params.num_slots,
                seed=seed,
                jitter=config.schedule_jitter,
            )
        return build_slp_schedule(
            self._topology,
            SlpParameters(search_distance=config.search_distance),
            num_slots=params.num_slots,
            seed=seed,
            jitter=config.schedule_jitter,
        ).schedule

    def _run_setup(self, config: ExperimentConfig, seed: int) -> Schedule:
        """The run's schedule from the message-level setup protocols."""
        run_das_setup, SlpProtocolConfig, run_slp_setup = setup_protocols()
        params = config.parameters
        if config.algorithm == PROTECTIONLESS:
            return run_das_setup(
                self._topology,
                config=params.das_config(),
                seed=seed,
                noise=config.make_noise(),
                setup_kernel=config.setup_kernel,
            ).schedule
        slp_config = SlpProtocolConfig(
            das=params.das_config(),
            search_distance=config.search_distance,
            change_length=params.change_length(
                self._topology, config.search_distance
            ),
        )
        return run_slp_setup(
            self._topology,
            config=slp_config,
            seed=seed,
            noise=config.make_noise(),
            setup_kernel=config.setup_kernel,
        ).schedule

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_once(self, config: ExperimentConfig, seed: int) -> OperationalResult:
        """Build a schedule and run the operational phase once."""
        tracer = active_tracer()
        if tracer is None:
            return self._run_once(config, seed)
        with tracer.span("run.once", seed=seed, algorithm=config.algorithm):
            return self._run_once(config, seed)

    def _run_once(self, config: ExperimentConfig, seed: int) -> OperationalResult:
        schedule = self.build_schedule(config, seed)
        result = run_operational_phase(
            self._topology,
            schedule,
            attacker=config.attacker,
            noise=config.make_noise(),
            seed=seed,
            frame=config.parameters.frame(),
            safety_factor=config.parameters.safety_factor,
            max_periods=config.max_periods,
            source_plan=config.source_plan,
            perturbations=config.perturbations,
            kernel=config.kernel,
        )
        if FAULT_PLAN_ENV in os.environ:
            # Chaos-only hook (one env lookup in production): lets the
            # fault harness corrupt a fast-kernel result so the
            # divergence guard has something real to catch.
            from .faults import active_fault_plan

            result = active_fault_plan().on_result(config, seed, result)
        return result

    def _execute(
        self,
        config: ExperimentConfig,
        seeds: Sequence[int],
        on_result: Optional[Callable[[int, OperationalResult], None]] = None,
    ) -> Tuple[Dict[int, OperationalResult], Tuple[FailedRun, ...]]:
        """Run ``seeds`` and return results keyed by seed plus any
        quarantine records.  The serial engine runs in-process with no
        retry machinery (a failure here is a real bug, not a worker
        casualty); the parallel runner overrides this with supervised
        pool execution.  ``on_result`` fires after each completed seed
        (the checkpoint store's append hook)."""
        results: Dict[int, OperationalResult] = {}
        for seed in seeds:
            result = self.run_once(config, seed)
            results[seed] = result
            if on_result is not None:
                on_result(seed, result)
        return results, ()

    def _outcome(
        self,
        config: ExperimentConfig,
        seeds: Sequence[int],
        results_by_seed: Dict[int, OperationalResult],
        failures: Tuple[FailedRun, ...],
    ) -> ExperimentOutcome:
        """Assemble surviving results (in seed order) into an outcome;
        fail loudly when nothing survived."""
        results = tuple(results_by_seed[s] for s in seeds if s in results_by_seed)
        if not results:
            from .resilience import nothing_survived

            raise nothing_survived(type(self).__name__, seeds, failures)
        return ExperimentOutcome(
            config=config,
            topology_name=self._topology.name,
            results=results,
            stats=capture_stats(results),
            failures=failures,
        )

    def _stamp_telemetry(self, config: ExperimentConfig) -> ExperimentConfig:
        """Mark the config telemetry-enabled while a session is active,
        so pool workers (which only see the pickled config) instrument
        themselves.  Identity when telemetry is off or already set."""
        if config.telemetry or active_tracer() is None:
            return config
        return replace(config, telemetry=True)

    def _publish_sweep_metrics(
        self, outcome: ExperimentOutcome, elapsed: float
    ) -> None:
        """Fold one sweep's capture metrics into the registry.  Only
        called with telemetry active — rates read the span clock."""
        registry = default_registry()
        stats = outcome.stats
        registry.inc("sweep.runs", stats.runs)
        registry.inc("sweep.captures", stats.captures)
        registry.gauge("sweep.capture_ratio", stats.capture_ratio)
        registry.observe("sweep.capture_ratio", stats.capture_ratio)
        messages = 0
        for result in outcome.results:
            registry.observe("sweep.safety_periods", result.safety_periods)
            registry.observe("sweep.periods_run", result.periods_run)
            messages += result.messages_sent
        registry.inc("sweep.messages", messages)
        if elapsed > 0:
            registry.gauge(
                "sweep.runs_per_second", round(stats.runs / elapsed, 3)
            )
            registry.gauge(
                "sweep.messages_per_second", round(messages / elapsed, 1)
            )

    def run(
        self,
        config: ExperimentConfig,
        on_result: Optional[Callable[[int, OperationalResult], None]] = None,
    ) -> ExperimentOutcome:
        """Run all repeats and aggregate.  ``on_result`` fires after
        each completed seed (progress reporting)."""
        config = self._stamp_telemetry(config)
        seeds = [config.base_seed + i for i in range(config.repeats)]
        tracer = active_tracer()
        if tracer is None:
            results_by_seed, failures = self._execute(config, seeds, on_result)
            return self._outcome(config, seeds, results_by_seed, failures)
        with tracer.span(
            "sweep.execute", algorithm=config.algorithm, repeats=config.repeats
        ) as span:
            results_by_seed, failures = self._execute(config, seeds, on_result)
            outcome = self._outcome(config, seeds, results_by_seed, failures)
        self._publish_sweep_metrics(outcome, span.end - span.start)
        return outcome

    def run_checkpointed(
        self,
        config: ExperimentConfig,
        checkpoint: SweepCheckpoint,
        resume: bool = True,
        on_result: Optional[Callable[[int, OperationalResult], None]] = None,
    ) -> ExperimentOutcome:
        """Run the sweep through an on-disk checkpoint store.

        Completed seeds are appended to the store as they finish; with
        ``resume=True`` seeds already on record are not re-run, and the
        merged outcome is bit-identical to an uninterrupted sweep (each
        run re-seeds from scratch, so a result cannot depend on which
        process produced it or when).  ``resume=False`` discards any
        prior record first.
        """
        config = self._stamp_telemetry(config)
        key = checkpoint.key_for(self._topology, config)
        if not resume:
            checkpoint.clear(key)
        done = checkpoint.load(key) if resume else {}
        seeds = [config.base_seed + i for i in range(config.repeats)]
        missing = [s for s in seeds if s not in done]

        def _record(seed: int, result: OperationalResult) -> None:
            checkpoint.append(key, seed, result)
            if on_result is not None:
                on_result(seed, result)

        fresh, failures = self._execute(config, missing, on_result=_record)
        merged = {s: done[s] for s in seeds if s in done}
        merged.update(fresh)
        return self._outcome(config, seeds, merged, failures)

    def run_resilient(
        self,
        config: ExperimentConfig,
        checkpoint: Optional[SweepCheckpoint] = None,
        resume: bool = False,
        guard: Optional[str] = None,
        bundle_dir: str = "divergence",
        on_result: Optional[Callable[[int, OperationalResult], None]] = None,
    ) -> ExperimentOutcome:
        """The fault-tolerance front door: checkpointing and the
        kernel-divergence guard composed over :meth:`run`.

        With every knob at its default this is exactly :meth:`run`.
        ``guard="differential"`` re-runs a sample of the sweep's seeds
        on the legacy engines after the sweep; a mismatch
        writes a reproducer bundle under ``bundle_dir`` and degrades
        the whole sweep to the legacy kernel (see
        :func:`~repro.experiments.resilience.apply_divergence_guard`).
        """
        if guard is not None and guard not in GUARD_MODES:
            raise invalid_field(
                "ExperimentRunner", "guard", guard,
                f"pick one of {GUARD_MODES} (or None)",
            )
        if checkpoint is not None:
            outcome = self.run_checkpointed(
                config, checkpoint, resume=resume, on_result=on_result
            )
        else:
            outcome = self.run(config, on_result=on_result)
        if guard is not None:
            from .resilience import apply_divergence_guard

            outcome = apply_divergence_guard(
                self, config, outcome, bundle_dir=bundle_dir
            )
        return outcome
