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
from .options import default_workers, plan_workers  # noqa: F401 (re-exported)
from .pool import SeedPool, _run_seed_chunk  # noqa: F401 (tests reach it here)
from .resilience import FailedRun, RetryPolicy
from .runner import ExperimentConfig, ExperimentRunner, setup_protocols
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
