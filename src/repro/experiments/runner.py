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

from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, Optional, Sequence, Tuple

from ..app import (
    KERNELS,
    OperationalResult,
    SourcePlan,
    run_operational_phase,
)
from ..attacker import AttackerSpec
from ..core import Schedule
from ..das.centralized import centralized_das_schedule
from ..das.kernels import resolve_setup_kernel
from ..errors import invalid_field
from ..metrics import CaptureStats, capture_stats
from ..records import Record, factory, replace
from ..simulator import CasinoLabNoise, NoiseModel
from ..telemetry import active_tracer
from ..topology import Topology
from .config import ALGORITHMS, PAPER, PROTECTIONLESS, SLP, PaperParameters
from .options import GUARD_MODES, fault_plan
from .schedule_cache import (
    ScheduleCache,
    default_schedule_cache,
    schedule_cache_enabled,
    schedule_key,
    topology_structure,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..app import Perturbation
    from .pool import SeedPool
    from .resilience import FailedRun, GuardReport, SweepCheckpoint

def setup_protocols():
    """:func:`~repro.experiments.overhead.distributed_schedule`: the
    message-level setup stack, imported on first use.  Only
    ``use_distributed`` sweeps run it, and no registered scenario is
    one.  A pooled :class:`ExperimentRunner` calls this before it
    forks, so pool workers inherit the modules instead of each
    compiling them."""
    from .overhead import distributed_schedule

    return distributed_schedule


def slp_schedule_builder():
    """``(SlpParameters, build_slp_schedule)``: the centralised SLP
    pipeline, imported on first use, so a protectionless sweep loads
    no SLP code.  A process that forks workers for SLP seeds calls this
    before it forks, so the workers inherit the modules."""
    from ..slp.protocol import SlpParameters, build_slp_schedule

    return SlpParameters, build_slp_schedule


class ExperimentConfig(Record):
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
        with each shard.  Never affects results — instrumentation only
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
    parameters: PaperParameters = factory(lambda: PAPER)
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


class ExperimentOutcome(Record):
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

    Runs execute serially in-process unless the runner has a ``pool``
    (a :class:`~repro.experiments.pool.SeedPool`): then a sweep of more
    than one seed fans out over its forked workers, with identical
    results.

    ``schedule_cache`` overrides the process-default
    :class:`~repro.experiments.schedule_cache.ScheduleCache` consulted
    by :meth:`build_schedule`; pass an explicit cache to isolate sweeps
    or ``None`` to share the default (the normal mode — cache hits are
    what make identity re-sweeps and algorithm comparisons cheap).
    Pool workers fork with a copy of it.
    """

    def __init__(
        self,
        topology: Topology,
        schedule_cache: Optional[ScheduleCache] = None,
        pool: Optional[SeedPool] = None,
    ) -> None:
        self._topology = topology
        self._schedule_cache = schedule_cache
        self._pool = pool
        self._structure: Optional[Tuple] = None

    @property
    def topology(self) -> Topology:
        """The network under test."""
        return self._topology

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
        """The content-addressed cache key of one run's schedule build."""
        if self._structure is None:
            self._structure = topology_structure(self._topology)
        return schedule_key(
            self._structure,
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
            return setup_protocols()(self._topology, config, seed)
        params = config.parameters
        if config.algorithm == PROTECTIONLESS:
            return centralized_das_schedule(
                self._topology,
                num_slots=params.num_slots,
                seed=seed,
                jitter=config.schedule_jitter,
            )
        SlpParameters, build_slp_schedule = slp_schedule_builder()
        return build_slp_schedule(
            self._topology,
            SlpParameters(search_distance=config.search_distance),
            num_slots=params.num_slots,
            seed=seed,
            jitter=config.schedule_jitter,
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
        plan = fault_plan()
        if plan is not None:
            # Chaos-only hook (one env lookup in production): lets the
            # fault harness corrupt a fast-kernel result so the
            # divergence guard has something real to catch.
            result = plan.on_result(config, seed, result)
        return result

    def _execute(
        self,
        config: ExperimentConfig,
        seeds: Sequence[int],
        on_result: Optional[Callable[[int, OperationalResult], None]] = None,
    ) -> Tuple[Dict[int, OperationalResult], Tuple[FailedRun, ...]]:
        """Run ``seeds`` and return results keyed by seed plus any
        quarantine records.  With a pool and more than one seed the
        seeds run on its supervised workers; otherwise they run
        in-process with no retry machinery (a failure here is a real
        bug, not a worker casualty).  ``on_result`` fires after each
        completed seed (the checkpoint store's append hook)."""
        if self._pool is not None and len(seeds) > 1:
            # Imported here, so forked workers inherit what their seeds run.
            if config.use_distributed:
                setup_protocols()
            elif config.algorithm == SLP:
                slp_schedule_builder()
            return self._pool.map_seeds(
                partial(self.run_once, config), seeds, config.telemetry, on_result
            )
        results: Dict[int, OperationalResult] = {}
        for seed in seeds:
            result = self.run_once(config, seed)
            results[seed] = result
            if on_result is not None:
                on_result(seed, result)
        return results, ()

    def _stamp_telemetry(self, config: ExperimentConfig) -> ExperimentConfig:
        """Mark the config telemetry-enabled while a session is active,
        so pool workers instrument each shard they run and ship its
        spans back.  Identity when telemetry is off or already set."""
        if config.telemetry or active_tracer() is None:
            return config
        return replace(config, telemetry=True)

    def run(
        self,
        config: ExperimentConfig,
        on_result: Optional[Callable[[int, OperationalResult], None]] = None,
        checkpoint: Optional[SweepCheckpoint] = None,
        resume: bool = False,
        guard: Optional[str] = None,
    ) -> ExperimentOutcome:
        """Run all repeats and aggregate.

        ``on_result`` fires after each completed seed (progress
        reporting).  With a ``checkpoint`` store, completed seeds are
        appended to it as they finish; ``resume=True`` re-runs only the
        seeds not already on record, and the merged outcome is
        bit-identical to an uninterrupted sweep (each run re-seeds from
        scratch, so a result cannot depend on which process produced
        it or when), while ``resume=False`` discards any prior record
        first.  ``guard="differential"`` re-runs a sample of the seeds
        on the legacy engines afterwards; a mismatch writes a
        reproducer bundle under ``<checkpoint>/divergence`` (or
        ``divergence`` without a store) and degrades the whole sweep to
        the legacy kernel (see
        :func:`~repro.experiments.resilience.apply_divergence_guard`).
        """
        if guard is not None and guard not in GUARD_MODES:
            raise invalid_field(
                "ExperimentRunner", "guard", guard,
                f"pick one of {GUARD_MODES} (or None)",
            )
        stamped = self._stamp_telemetry(config)
        seeds = [config.base_seed + i for i in range(config.repeats)]
        done: Dict[int, OperationalResult] = {}
        record = on_result
        if checkpoint is not None:
            key = checkpoint.key_for(self._topology, stamped)
            if resume:
                done = checkpoint.load(key)
            else:
                checkpoint.clear(key)

            def record(seed: int, result: OperationalResult) -> None:
                checkpoint.append(key, seed, result)
                if on_result is not None:
                    on_result(seed, result)

        tracer = active_tracer()
        if tracer is None:
            outcome = self._sweep(stamped, seeds, done, record)
        else:
            with tracer.span(
                "sweep.execute", algorithm=config.algorithm, repeats=config.repeats
            ) as span:
                outcome = self._sweep(stamped, seeds, done, record)
            from ..telemetry.registry import publish_sweep_metrics

            publish_sweep_metrics(outcome, span.end - span.start)
        if guard is not None:
            from .resilience import apply_divergence_guard

            bundle_dir = (
                "divergence"
                if checkpoint is None
                else str(checkpoint.root / "divergence")
            )
            outcome = apply_divergence_guard(
                self, config, outcome, bundle_dir=bundle_dir
            )
        return outcome

    def _sweep(
        self,
        config: ExperimentConfig,
        seeds: Sequence[int],
        done: Dict[int, OperationalResult],
        on_result: Optional[Callable[[int, OperationalResult], None]],
    ) -> ExperimentOutcome:
        """Run the seeds not already ``done`` and merge them with those
        into the sweep's outcome."""
        missing = [s for s in seeds if s not in done]
        fresh, failures = self._execute(config, missing, on_result)
        merged = {s: done[s] for s in seeds if s in done}
        merged.update(fresh)
        return sweep_outcome(
            type(self).__name__, config, self._topology.name, seeds, merged, failures
        )


def sweep_outcome(
    owner: str,
    config: ExperimentConfig,
    topology_name: str,
    seeds: Sequence[int],
    results_by_seed: Dict[int, OperationalResult],
    failures: Tuple[FailedRun, ...],
) -> ExperimentOutcome:
    """Assemble the surviving results of a sweep of ``seeds`` (in seed
    order) into an outcome; fail loudly, naming ``owner``, when nothing
    survived."""
    results = tuple(results_by_seed[s] for s in seeds if s in results_by_seed)
    if not results:
        from .resilience import nothing_survived

        raise nothing_survived(owner, seeds, failures)
    return ExperimentOutcome(
        config=config,
        topology_name=topology_name,
        results=results,
        stats=capture_stats(results),
        failures=failures,
    )
