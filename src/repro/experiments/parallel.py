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
from .pool import SeedPool, _run_seed_chunk  # noqa: F401 (tests reach it here)
from .resilience import FailedRun, RetryPolicy
from .runner import (
    SLP,
    ExperimentConfig,
    ExperimentRunner,
    setup_protocols,
    slp_schedule_builder,
)
from .schedule_cache import (
    ScheduleCache,
    default_schedule_cache,
    schedule_cache_enabled,
)


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
        # Imported here, so forked workers inherit what their seeds run.
        if config.use_distributed:
            setup_protocols()
        elif config.algorithm == SLP:
            slp_schedule_builder()
        return self.map_seeds(
            lambda chunk: _SweepSeed(
                self._topology, config, self._cached_schedules_for(config, chunk)
            ),
            seeds,
            config.telemetry,
            on_result,
        )
