"""Parallel seed sweeps: the experiment engine's multi-core mode.

The evaluation aggregates thousands of independent seeded runs (30
repeats × sizes × algorithms × ablations), and the seed dimension is
embarrassingly parallel: run *i* depends only on ``base_seed + i``.
:class:`ParallelExperimentRunner` fans those runs out over forked
worker processes while preserving the serial engine's contract exactly
— run *i* still uses ``base_seed + i`` and results are reassembled in
seed order, so the aggregated :class:`~repro.metrics.CaptureStats` are
bit-identical to a serial sweep of the same configuration.

The pool itself — the shard board, the forked pull workers, their
supervision (retries, respawn, poison-seed quarantine) and worker
telemetry — is :class:`~repro.experiments.pool.SeedPool`, which this
runner inherits.  That pool knows nothing of the operational phase, so
the message-overhead experiment runs on it without importing this
module; what the runner adds is the operational per-seed function.
The workers fork after the sweep opens, so they reuse every schedule
the parent has already built.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Optional, Sequence, Tuple

from ..app import OperationalResult
from ..topology import Topology
from .pool import SeedPool
from .resilience import FailedRun, RetryPolicy
from .runner import (
    SLP,
    ExperimentConfig,
    ExperimentRunner,
    setup_protocols,
    slp_schedule_builder,
)
from .schedule_cache import ScheduleCache


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
        up to ``workers × chunks_per_worker`` shards.
    schedule_cache:
        As on :class:`ExperimentRunner`; the workers fork with a copy.
    retry_policy, chunk_timeout:
        The pool's supervision, as on
        :class:`~repro.experiments.pool.SeedPool`.
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

    def _execute(
        self,
        config: ExperimentConfig,
        seeds: Sequence[int],
        on_result=None,
    ) -> Tuple[Dict[int, OperationalResult], Tuple[FailedRun, ...]]:
        """Supervised pool execution of a seed sweep."""
        if self._workers == 1 or len(seeds) <= 1:
            return super()._execute(config, seeds, on_result)
        # Imported here, so forked workers inherit what their seeds run.
        if config.use_distributed:
            setup_protocols()
        elif config.algorithm == SLP:
            slp_schedule_builder()
        return self.map_seeds(
            partial(self.run_once, config), seeds, config.telemetry, on_result
        )
