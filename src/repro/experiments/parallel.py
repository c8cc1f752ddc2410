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

The pool itself — lazy start, chunked dispatch, supervision (retries,
respawn, poison-seed quarantine) and worker telemetry — is
:class:`~repro.experiments.pool.SeedPool`, which this runner inherits.
That pool knows nothing of the operational phase, so the
message-overhead experiment runs on it without importing this module;
what the runner adds is the operational per-seed function and the
schedules each chunk ships to its worker.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..app import OperationalResult
from ..core import Schedule
from ..topology import Topology
from .options import default_workers
from .pool import SeedPool, _run_seed_chunk  # noqa: F401 (tests reach it here)
from .resilience import FailedRun, RetryPolicy
from .runner import ExperimentConfig, ExperimentRunner, setup_protocols
from .schedule_cache import (
    ScheduleCache,
    default_schedule_cache,
    schedule_cache_enabled,
)


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


class ParallelExperimentRunner(SeedPool, ExperimentRunner):
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
    retry_policy, chunk_timeout:
        The pool's supervision, as on
        :class:`~repro.experiments.pool.SeedPool`, whose lazily started
        pool is reused across ``run`` calls until :meth:`close`.
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
        ExperimentRunner.__init__(self, topology, schedule_cache=schedule_cache)
        SeedPool.__init__(
            self,
            workers,
            chunks_per_worker=chunks_per_worker,
            retry_policy=retry_policy,
            chunk_timeout=chunk_timeout,
        )

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
