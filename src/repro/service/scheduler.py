"""The shard scheduler: supervised, checkpointed execution of one job.

A job's seed range is split into contiguous *shards*
(:func:`~repro.experiments.seed_chunks` — the same balanced partition
the parallel runner uses) and published on the service's
:class:`~repro.service.transport.ShardBoard`, where pull workers lease
them: the service's own forked local workers, ``repro worker start
--connect`` processes on any host, or both.  Whoever runs a shard:

* every completed seed is uploaded and appended to the job's
  :class:`~repro.experiments.SweepCheckpoint` *by the board*, so the
  append doubles as the lease's **heartbeat**;
* a failed, crashed or timed-out shard walks the one
  :class:`~repro.experiments.Ladder` — retry with backoff, then
  **bisection** until the poison seed is isolated and quarantined as a
  :class:`~repro.experiments.FailedRun` on the job record while its
  former shard-mates complete normally;
* because leases only ever carry seeds missing from the store, a
  retried or resumed shard re-runs only what is missing — and because
  every run re-seeds from scratch, the merged report is bit-identical
  to an uninterrupted serial sweep, which the chaos drills assert
  literally.

The scheduler itself holds no job state worth preserving: kill the
process at any instant and the (job store, checkpoint store) pair on
disk is sufficient to resume.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set

from ..errors import invalid_field, sweep_failed
from ..experiments import ExperimentConfig, FailedRun, RetryPolicy, seed_chunks
from ..experiments.runner import sweep_outcome
from ..scenarios import ScenarioOutcome, ScenarioSpec, lower_job
from ..telemetry import default_registry
from .state import job_key

if TYPE_CHECKING:  # the board module imports this one
    from .transport import ShardBoard


class JobInterrupted(Exception):
    """The scheduler was asked to stop mid-job (graceful drain).

    The job's finished seeds are all in the checkpoint; the caller
    re-queues the job so the next service start finishes the rest.
    """


class ShardScheduler:
    """Executes one job through the shard board's pull workers.

    ``run_job`` publishes the job's missing seeds as shards, waits for
    the board to report every seed durable or quarantined, gives seeds
    that vanished from disk one recovery pass, and merges the
    checkpoint into the report.  Lease health (timeouts, dead local
    workers) is the service's fleet supervision, not this loop's.

    Parameters
    ----------
    board:
        The service's lease table; its checkpoint store is the job's.
    shards_per_job:
        How many shards to split a job's missing seeds into (default 4;
        the service passes ``2 x shard_workers`` in local mode).
    retry:
        The ladder's backoff schedule (default
        :class:`~repro.experiments.RetryPolicy`\\ ()).
    poll_interval:
        The longest the loop waits (seconds) between checks of ``stop``
        and publishing progress; the board wakes it the moment the job
        finishes or halts.
    """

    def __init__(
        self,
        board: "ShardBoard",
        shards_per_job: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        poll_interval: float = 0.05,
    ) -> None:
        if shards_per_job is not None and shards_per_job < 1:
            raise invalid_field(
                "ShardScheduler", "shards_per_job", shards_per_job,
                "a job needs at least one shard",
            )
        self._board = board
        self._checkpoint = board.checkpoint
        self._shards_per_job = shards_per_job or 4
        self._retry = retry if retry is not None else RetryPolicy()
        self._poll = poll_interval

    def run_job(
        self,
        spec: ScenarioSpec,
        repeats: Optional[int] = None,
        base_seed: Optional[int] = None,
        kernel: Optional[str] = None,
        setup_kernel: Optional[str] = None,
        stop=None,
        on_progress: Optional[Callable[[Dict[str, object]], None]] = None,
    ) -> ScenarioOutcome:
        """Run one job to completion (or quarantine) and merge its report.

        ``stop`` is an optional ``threading.Event``: once set, the job
        is withdrawn from the board and :class:`JobInterrupted` raised —
        the graceful drain path (finished seeds are already durable).
        ``on_progress`` receives the board's ``{"seeds_done",
        "seeds_total", "shards": [...], ...}`` snapshots, which the
        HTTP status endpoint serves.
        """
        topology, config = lower_job(spec, repeats, base_seed, kernel, setup_kernel)
        key = self._checkpoint.key_for(topology, config)
        seeds = [config.base_seed + i for i in range(config.repeats)]
        job_id = job_key(spec, config.repeats, config.base_seed, kernel, setup_kernel)
        registry = default_registry()
        registry.gauge("service.job.seeds_total", len(seeds))

        on_disk = self._checkpoint.load(key)
        failures: List[FailedRun] = []
        for recovery in (False, True):
            quarantined = {f.seed for f in failures}
            missing = [
                s for s in seeds if s not in on_disk and s not in quarantined
            ]
            if not missing:
                break
            if recovery:
                # The board saw these seeds land, yet they are not on
                # disk: an append was silently corrupted (a lying disk —
                # the chaos drill's ``corrupt_checkpoint_seeds``) and the
                # line digest made the loader drop it.  Reopen them once
                # before the merge is allowed to fail the job.
                registry.inc("service.recovery_passes")
            failures = sorted(
                failures
                + self._supervise(
                    job_id, spec, config, key, missing, set(on_disk),
                    kernel, setup_kernel, stop, on_progress,
                ),
                key=lambda f: f.seed,
            )
            on_disk = self._checkpoint.load(key)
        # Seed-ordered reassembly of the checkpoint into the report a
        # direct ``ScenarioRunner.run`` builds: however the seeds
        # travelled, the merge is the same.
        quarantined = {f.seed for f in failures}
        lost = [s for s in seeds if s not in quarantined and s not in on_disk]
        if lost:
            raise sweep_failed(
                "ShardScheduler",
                seeds=lost,
                attempts=self._retry.max_attempts,
                detail="seeds neither checkpointed nor quarantined",
            )
        survivors = {s: on_disk[s] for s in seeds if s not in quarantined}
        outcome = sweep_outcome(
            "ShardScheduler", config, topology.name, seeds, survivors,
            tuple(failures),
        )
        return ScenarioOutcome.from_sweep(spec, config, outcome)

    def _supervise(
        self,
        job_id: str,
        spec: ScenarioSpec,
        config: ExperimentConfig,
        key: str,
        missing: List[int],
        done: Set[int],
        kernel: Optional[str],
        setup_kernel: Optional[str],
        stop,
        on_progress,
    ) -> List[FailedRun]:
        """Publish ``missing`` on the board and wait until every seed is
        durable or quarantined; returns the quarantine records."""
        registry = default_registry()
        shards = [
            chunk for chunk in seed_chunks(missing, self._shards_per_job) if chunk
        ]
        registry.inc("service.shards", len(shards))
        self._board.open_job(
            job_id, spec.to_json(indent=None), config.repeats,
            config.base_seed, kernel, setup_kernel, key,
            self._retry, shards, done,
        )
        try:
            while not self._board.job_finished(job_id):
                if stop is not None and stop.is_set():
                    raise JobInterrupted("service drain requested")
                halt = self._board.halt_of(job_id)
                if halt is not None:
                    raise halt
                progress = self._board.progress(job_id)
                if progress is not None:
                    registry.gauge(
                        "service.job.seeds_done", progress["seeds_done"]
                    )
                    registry.gauge(
                        "service.job.shards_active", len(progress["shards"])
                    )
                    if on_progress is not None:
                        on_progress(progress)
                self._board.wait_finished(job_id, self._poll)
            return self._board.take_failures(job_id)
        finally:
            self._board.close_job(job_id)


class RemoteShardScheduler(ShardScheduler):
    """The pre-unification name of :class:`ShardScheduler`.

    Kept as a subclass with its *own* ``run_job`` attribute (not a bare
    alias): tools that instrument each class's ``__dict__["run_job"]``
    would otherwise wrap one function twice and count it double.
    """

    run_job = ShardScheduler.run_job
