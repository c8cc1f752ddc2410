"""Parallel seed sweeps: the experiment engine's multi-core mode.

The evaluation aggregates thousands of independent seeded runs (30
repeats × sizes × algorithms × ablations), and the seed dimension is
embarrassingly parallel: run *i* depends only on ``base_seed + i``.
:class:`ParallelExperimentRunner` fans those runs out over a
:class:`~concurrent.futures.ProcessPoolExecutor` while preserving the
serial engine's contract exactly — run *i* still uses ``base_seed + i``
and results are reassembled in seed order, so the aggregated
:class:`~repro.metrics.CaptureStats` are bit-identical to a serial
sweep of the same configuration.

Seeds are dispatched in contiguous chunks (several runs per task) to
amortise pickling and scheduling overhead; chunk boundaries cannot
affect results because every run re-seeds from scratch.

Execution is *supervised* (see :mod:`repro.experiments.resilience`):
each chunk is an individually watched future with optional timeout,
retries with deterministic backoff, pool respawn after worker death,
and poison-seed isolation via chunk splitting — a failing worker
quarantines at most its own seeds instead of aborting the sweep, and a
sweep in which nothing fails is byte-identical to unsupervised
execution.

:class:`ParallelExperimentRunner` is the library's only pool owner.
Any other per-seed function (the message-overhead experiment) runs on
the same supervised pool through
:meth:`ParallelExperimentRunner.map_seeds`.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from ..app import OperationalResult
from ..core import Schedule
from ..errors import ConfigurationError, invalid_field
from ..telemetry import (
    MetricsRegistry,
    SpanTracer,
    active_tracer,
    tracing,
    use_registry,
)
from ..topology import Topology
from .faults import active_fault_plan
from .options import default_workers
from .resilience import FailedRun, RetryPolicy, WorkerSupervisor
from .runner import ExperimentConfig, ExperimentRunner, setup_protocols
from .schedule_cache import (
    ScheduleCache,
    default_schedule_cache,
    schedule_cache_enabled,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import ProcessPoolExecutor


#: Dispatch threshold for :func:`plan_workers`: a sweep whose total work
#: (``repeats × nodes``) falls below this is cheaper to run serially
#: than to pickle, ship and gather across a pool.  Calibrated on the
#: tracked bench: the quick-mode scenario sweeps (4 × 121 node-runs)
#: sit below it, the full sweeps (20-30 × 121+) above.
MIN_NODE_RUNS_FOR_POOL = 1000


def plan_workers(
    workers: Optional[int],
    repeats: Optional[int] = None,
    topology: Optional[Topology] = None,
    force_parallel: bool = False,
) -> int:
    """Resolve a requested worker count into an *effective* one.

    Two situations make a process pool a net loss, both observed on the
    tracked bench (``scenario_churn`` ran at 0.57× the serial speed with
    4 workers on a 1-core container):

    * more workers than usable cores — the pool adds pickling and
      scheduling overhead while the extra processes just time-slice one
      another; the count is capped at :func:`default_workers`;
    * a sweep too small to amortise dispatch — when
      ``repeats × topology nodes`` falls under
      :data:`MIN_NODE_RUNS_FOR_POOL`, the whole sweep runs serially.

    Returns the worker count to actually use (``1`` = serial).
    ``force_parallel`` is the escape hatch: the requested count is used
    verbatim (benchmarks measuring pool overhead itself need this).
    ``None`` stays serial, ``0`` means one per CPU, as everywhere else.
    """
    resolved = default_workers() if workers == 0 else workers
    if resolved is None or resolved <= 1:
        return 1
    if force_parallel:
        return resolved
    effective = min(resolved, default_workers())
    if effective <= 1:
        return 1
    if (
        repeats is not None
        and topology is not None
        and repeats * topology.num_nodes < MIN_NODE_RUNS_FOR_POOL
    ):
        return 1
    return effective


def seed_chunks(seeds: Sequence[int], tasks: int) -> List[Tuple[int, ...]]:
    """Split ``seeds`` into at most ``tasks`` contiguous, ordered chunks.

    Contiguity means a flattened, submission-ordered gather reproduces
    the original seed order with no re-sorting step.
    """
    if tasks < 1:
        raise ConfigurationError("seed_chunks needs at least one task")
    n = len(seeds)
    tasks = min(tasks, n) if n else 0
    chunks: List[Tuple[int, ...]] = []
    start = 0
    for i in range(tasks):
        # Balanced partition: the first n % tasks chunks get one extra.
        size = n // tasks + (1 if i < n % tasks else 0)
        chunks.append(tuple(seeds[start : start + size]))
        start += size
    return chunks


class ChunkResults(list):
    """One chunk's result list plus an optional telemetry payload.

    A ``list`` subclass, so the supervisor's seed↔result zip and every
    other consumer handle it exactly like the bare list workers used
    to return; the payload (worker spans + metrics snapshot, see
    :meth:`SpanTracer.export_payload`) rides back on the same future
    and is only ever looked for via ``getattr``.
    """

    telemetry: Optional[dict] = None


class _SweepSeed:
    """An operational sweep's per-seed function, as shipped to a worker.
    Its first call preloads ``schedules`` (the chunk's schedules the
    parent had already built) counter-neutrally into the worker's
    default cache, so the worker reuses them instead of rebuilding."""

    def __init__(
        self,
        topology: Topology,
        config: ExperimentConfig,
        schedules: Optional[Dict[Tuple, Schedule]] = None,
    ) -> None:
        self._topology = topology
        self._config = config
        self._schedules = schedules
        self._runner: Optional[ExperimentRunner] = None

    def __call__(self, seed: int) -> OperationalResult:
        if self._runner is None:
            if self._schedules:
                default_schedule_cache().preload(self._schedules)
            self._runner = ExperimentRunner(self._topology)
        return self._runner.run_once(self._config, seed)


def _run_seed_chunk(
    run_seed: Callable[[int], object], seeds: Tuple[int, ...], telemetry: bool
) -> list:
    """Worker entry point: ``run_seed`` over one contiguous chunk of seeds.

    ``run_seed`` is any picklable per-seed function; the chaos fault
    point fires before each seed.  Module-level so it pickles by
    reference under every start method.

    With ``telemetry`` set the chunk instruments itself — a private
    tracer and registry for exactly this chunk's work — and ships both
    back with the results as a :class:`ChunkResults` payload, which the
    supervisor absorbs onto the parent's timeline as a separate worker
    track.
    """
    # An active tracer owned by *this* process means the chunk is
    # running inline under the parent session — its spans land on the
    # parent track directly.  A tracer with a foreign pid is an
    # artefact of fork-start pools (the child inherits the parent's
    # module globals); the worker must still instrument itself.
    parent_tracer = active_tracer()
    if not telemetry or (
        parent_tracer is not None and parent_tracer.pid == os.getpid()
    ):
        return _run_chunk_seeds(run_seed, seeds)
    tracer = SpanTracer()
    registry = MetricsRegistry()
    with use_registry(registry), tracing(tracer):
        with tracer.span("chunk.run", seeds=list(seeds)):
            results = _run_chunk_seeds(run_seed, seeds)
    payload = tracer.export_payload()
    payload["metrics"] = registry.snapshot()
    wrapped = ChunkResults(results)
    wrapped.telemetry = payload
    return wrapped


def _run_chunk_seeds(
    run_seed: Callable[[int], object], seeds: Tuple[int, ...]
) -> list:
    plan = active_fault_plan()
    results = []
    for seed in seeds:
        if plan is not None:
            # Chaos-only fault point (crash/hang/transient/poison).
            plan.before_seed(seed)
        results.append(run_seed(seed))
    return results


class ParallelExperimentRunner(ExperimentRunner):
    """An :class:`ExperimentRunner` that sweeps seeds across processes.

    Parameters
    ----------
    topology:
        The network under test.
    workers:
        Process count; ``None`` or ``0`` means one per CPU (the CLI
        convention).  ``workers=1`` degenerates to the serial engine
        without spawning a pool.
    chunks_per_worker:
        Load-balancing granularity: each ``run`` splits its seeds into
        up to ``workers × chunks_per_worker`` tasks.
    schedule_cache:
        As on :class:`ExperimentRunner` — the parent-side cache
        consulted by ``build_schedule`` *and* mined for already-built
        schedules to ship with each worker chunk.
    retry_policy:
        Backoff schedule for supervised retries of failed or hung
        chunks (default: three attempts, 50 ms base delay).  See
        :class:`~repro.experiments.resilience.RetryPolicy`.
    chunk_timeout:
        Seconds a chunk future may run before the pool is presumed
        hung, killed and respawned (``None``, the default, disables the
        timeout — a crash still recovers, a genuine hang does not).

    The pool is created lazily on first use and reused across ``run``
    calls (pool start-up would otherwise dominate short sweeps) — close
    it with :meth:`close` or use the runner as a context manager.
    """

    def __init__(
        self,
        topology: Topology,
        workers: Optional[int] = None,
        chunks_per_worker: int = 4,
        schedule_cache: Optional["ScheduleCache"] = None,
        retry_policy: Optional[RetryPolicy] = None,
        chunk_timeout: Optional[float] = None,
    ) -> None:
        super().__init__(topology, schedule_cache=schedule_cache)
        resolved = default_workers() if not workers else workers
        if resolved < 1:
            raise invalid_field(
                "ParallelExperimentRunner", "workers", workers,
                "the parallel runner needs at least one worker",
            )
        if chunks_per_worker < 1:
            raise invalid_field(
                "ParallelExperimentRunner", "chunks_per_worker", chunks_per_worker,
                "chunks_per_worker must be at least one",
            )
        if chunk_timeout is not None and chunk_timeout <= 0:
            raise invalid_field(
                "ParallelExperimentRunner", "chunk_timeout", chunk_timeout,
                "a timeout must be positive (None disables it)",
            )
        self._workers = resolved
        self._chunks_per_worker = chunks_per_worker
        self._executor: Optional["ProcessPoolExecutor"] = None
        self._retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self._chunk_timeout = chunk_timeout

    @property
    def workers(self) -> int:
        """The process count seed sweeps fan out over."""
        return self._workers

    def _cached_schedules_for(
        self, config: ExperimentConfig, seeds: Tuple[int, ...]
    ) -> Optional[Dict[Tuple, Schedule]]:
        """The chunk's schedules the parent already holds, keyed for the
        worker's lookups.

        Only entries actually present travel (a cold parent ships
        nothing — workers build and cache locally exactly as before),
        and the peek is counter-neutral so parent-side ``cache_hits``
        accounting keeps meaning "a build was avoided *here*".
        """
        if not config.use_schedule_cache:
            return None
        cache = self._schedule_cache
        if cache is None and schedule_cache_enabled():
            cache = default_schedule_cache()
        if cache is None:
            return None
        shipped: Dict[Tuple, Schedule] = {}
        for seed in seeds:
            key = self.schedule_key_for(config, seed)
            if key in shipped:
                continue  # unseeded builds: one key covers every seed
            schedule = cache.peek(key)
            if schedule is not None:
                shipped[key] = schedule
        return shipped or None

    def _ensure_executor(self) -> "ProcessPoolExecutor":
        if self._executor is None:
            from concurrent.futures import ProcessPoolExecutor

            self._executor = ProcessPoolExecutor(max_workers=self._workers)
        return self._executor

    @staticmethod
    def _terminate_processes(executor: "ProcessPoolExecutor") -> None:
        """Forcibly end a pool's worker processes (the only way to
        reclaim a hung worker; ``shutdown`` alone would wait forever)."""
        processes = getattr(executor, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except (OSError, ValueError):  # already gone
                pass

    def close(self, kill: bool = False) -> None:
        """Shut the worker pool down; the next submit spawns a fresh one
        (this is also the supervisor's ``respawn`` hook).  Idempotent.
        ``kill=True`` cancels pending futures, terminates the worker
        processes and does not wait — the only way to reclaim a hung
        worker, and the interrupt path, which must never orphan workers
        behind a blocking shutdown."""
        executor = self._executor
        self._executor = None
        if executor is not None:
            if kill:
                self._terminate_processes(executor)
            executor.shutdown(wait=not kill, cancel_futures=True)

    def __enter__(self) -> "ParallelExperimentRunner":
        return self

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        # On KeyboardInterrupt (or interpreter teardown via SystemExit)
        # a graceful shutdown would block on in-flight chunks and leave
        # workers orphaned if the user interrupts again; kill instead.
        interrupted = isinstance(exc_type, type) and issubclass(
            exc_type, (KeyboardInterrupt, SystemExit)
        )
        self.close(kill=interrupted)

    def _execute(
        self,
        config: ExperimentConfig,
        seeds: Sequence[int],
        on_result=None,
    ) -> Tuple[Dict[int, OperationalResult], Tuple[FailedRun, ...]]:
        """Supervised pool execution of a seed sweep; each chunk ships
        the schedules the parent already built."""
        if self._workers == 1 or len(seeds) <= 1:
            return super()._execute(config, seeds, on_result)
        if config.use_distributed:
            setup_protocols()  # imported here, so forked workers inherit it
        return self.map_seeds(
            lambda chunk: _SweepSeed(
                self._topology, config, self._cached_schedules_for(config, chunk)
            ),
            seeds,
            config.telemetry,
            on_result,
        )

    def map_seeds(
        self,
        task_for: Callable[[Tuple[int, ...]], Callable[[int], object]],
        seeds: Sequence[int],
        telemetry: bool,
        on_result=None,
    ) -> Tuple[Dict[int, object], Tuple[FailedRun, ...]]:
        """Run ``seeds`` on the pool in chunks; a worker runs the
        picklable per-seed function ``task_for(chunk)`` over its chunk.

        Chunks run as individually supervised futures (fault points,
        timeout, retry with backoff, pool respawn, poison-seed
        isolation — see
        :class:`~repro.experiments.resilience.WorkerSupervisor`);
        ``telemetry`` has workers ship their spans and metrics back.
        Returns results keyed by seed, so the reassembled sweep is
        bit-identical to a serial one whenever nothing fails, plus the
        quarantine records.
        """
        chunks = seed_chunks(list(seeds), self._workers * self._chunks_per_worker)
        supervisor = WorkerSupervisor(
            submit=lambda chunk: self._ensure_executor().submit(
                _run_seed_chunk, task_for(chunk), chunk, telemetry
            ),
            respawn=self.close,
            retry=self._retry_policy,
            chunk_timeout=self._chunk_timeout,
            on_result=on_result,
        )
        try:
            return supervisor.execute(chunks)
        except BaseException:
            # KeyboardInterrupt (or any other escape) mid-sweep: tear
            # the pool down hard rather than leave workers running a
            # sweep nobody will collect.
            self.close(kill=True)
            raise


def make_runner(
    topology: Topology,
    workers: Optional[int] = None,
    repeats: Optional[int] = None,
    force_parallel: bool = False,
    retry_policy: Optional[RetryPolicy] = None,
    chunk_timeout: Optional[float] = None,
) -> ExperimentRunner:
    """Build the right runner for a worker count.

    ``None`` or ``1`` gives the serial :class:`ExperimentRunner`; ``0``
    means one per CPU; any other count gives a
    :class:`ParallelExperimentRunner`.  Both support the
    context-manager protocol, so call sites can treat them uniformly::

        with make_runner(topology, workers) as runner:
            outcome = runner.run(config)

    When the sweep size is known, pass ``repeats`` so
    :func:`plan_workers` can fall back to the serial engine where a pool
    would only add overhead (worker count above the core count, or a
    sweep too small to amortise dispatch); ``force_parallel=True``
    bypasses that policy and honours the requested count verbatim.
    Results are bit-identical whichever engine is picked.
    ``retry_policy`` and ``chunk_timeout`` configure the parallel
    engine's supervision (ignored by the serial engine, which has no
    workers to lose).
    """
    effective = plan_workers(
        workers, repeats=repeats, topology=topology, force_parallel=force_parallel
    )
    if effective <= 1:
        return ExperimentRunner(topology)
    return ParallelExperimentRunner(
        topology,
        workers=effective,
        retry_policy=retry_policy,
        chunk_timeout=chunk_timeout,
    )
