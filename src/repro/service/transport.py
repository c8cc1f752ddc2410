"""The shard board: the service's lease table, served over HTTP.

Every job the :class:`~repro.service.scheduler.ShardScheduler` runs is
published here as shards, and pull workers lease them with ``POST
/shards/claim`` — the service's own forked local workers and ``repro
worker start --connect`` processes on any host alike, through the same
endpoints:

* every completed seed a worker ``POST /shards/<id>/seeds`` is appended
  to the job's checkpoint *server-side*, so the durability write
  doubles as the lease renewal;
* seed uploads are **idempotent**: the board dedups by
  ``(job, shard, seed)`` (a seed already durable is never appended
  again), so a duplicated, replayed or post-revocation-stale upload is
  harmless and a revoked lease can never double-count a seed;
* failures are charged through the one
  :class:`~repro.experiments.Ladder` (retry with backoff → bisect →
  quarantine as a :class:`~repro.experiments.FailedRun`):
  :meth:`ShardBoard.fail_shard` for a run that raised (``error``),
  :meth:`ShardBoard.fail_worker` for every lease of a local worker
  that died (``crash``) or wedged past the lease timeout
  (``timeout``);
* a remote lease that lands no seed within the lease timeout, and a
  lease handed back by a draining worker, are re-queued **blame-free**
  (same attempt): a silent remote worker convicts the network or the
  worker, never the seeds;
* nobody polls the board: its lock is a condition, and every change a
  waiter checks (a job opened or closed, a seed landed, a shard failed,
  released, completed or revoked, a halt) wakes the waiters — held
  claims (:meth:`ShardBoard.hold_claim`) and the scheduler waiting for
  its job to finish (:meth:`ShardBoard.wait_finished`).

The board holds no state worth preserving: kill the service at any
instant and the (job store, checkpoint store) pair on disk is still
sufficient to resume — leases are deliberately *not* durable, because
a restarted service must re-issue them anyway.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from typing import Collection, Deque, Dict, List, Optional, Set, Tuple

from ..experiments import (
    FailedRun,
    Ladder,
    RetryPolicy,
    ServiceHalt,
    SweepCheckpoint,
    active_fault_plan,
    result_from_dict,
)
from ..telemetry import default_registry

#: The lease timeout when the operator gives none (``--shard-timeout``):
#: a dead, wedged or partitioned worker must never wedge a job forever.
DEFAULT_LEASE_TIMEOUT = 60.0


class _BoardShard:
    """One shard queued for (re-)lease."""

    __slots__ = ("seeds", "attempt", "ready_at")

    def __init__(self, seeds: Tuple[int, ...], attempt: int, ready_at: float = 0.0):
        self.seeds = seeds
        self.attempt = attempt
        self.ready_at = ready_at


class _Lease:
    """One shard currently out with a worker."""

    __slots__ = ("shard_id", "shard", "worker", "last_advance")

    def __init__(self, shard_id: str, shard: _BoardShard, worker: str, now: float):
        self.shard_id = shard_id
        self.shard = shard
        self.worker = worker
        self.last_advance = now


class _BoardJob:
    """Server-side context of one job open for remote execution."""

    __slots__ = (
        "job_id", "spec_json", "repeats", "base_seed", "kernel",
        "setup_kernel", "key", "ladder", "outstanding", "done",
        "quarantined", "pending", "leases", "failures", "next_shard", "halt",
    )

    def __init__(
        self,
        job_id: str,
        spec_json: str,
        repeats: int,
        base_seed: int,
        kernel: Optional[str],
        setup_kernel: Optional[str],
        key: str,
        retry: RetryPolicy,
        shards: List[Tuple[int, ...]],
        done: Set[int],
    ) -> None:
        self.job_id = job_id
        self.spec_json = spec_json
        self.repeats = repeats
        self.base_seed = base_seed
        self.kernel = kernel
        self.setup_kernel = setup_kernel
        self.key = key
        self.ladder = Ladder(retry, "service", "shard")
        self.outstanding: Set[int] = {s for chunk in shards for s in chunk}
        self.done: Set[int] = set(done)
        self.quarantined: Set[int] = set()
        self.pending: Deque[_BoardShard] = deque(
            _BoardShard(chunk, 1) for chunk in shards
        )
        self.leases: Dict[str, _Lease] = {}
        self.failures: List[FailedRun] = []
        self.next_shard = 0
        # The chaos harness's service halt, raised at a lease grant and
        # re-raised by the job's scheduler thread.
        self.halt: Optional[ServiceHalt] = None

    def finished(self) -> bool:
        return self.outstanding <= (self.done | self.quarantined)

    def missing(self, seeds: Tuple[int, ...]) -> Tuple[int, ...]:
        """``seeds`` neither durable nor quarantined yet."""
        return tuple(
            s for s in seeds if s not in self.done and s not in self.quarantined
        )


class ShardBoard:
    """The service's lease table: shards out for claim by pull workers.

    Thread-safe (HTTP handler threads claim/upload while scheduler and
    fleet threads supervise); supports several concurrently open jobs —
    claims drain jobs in open order, so ``--max-jobs`` and the worker
    fleet compose.  The checkpoint append inside :meth:`record_seed`
    runs under the board lock, which also serialises writers to one
    job's checkpoint file.
    """

    def __init__(self, checkpoint: SweepCheckpoint) -> None:
        self._checkpoint = checkpoint
        # The board's (reentrant) lock and its wake-up: every mutation
        # a waiter checks notifies while holding it.
        self._lock = threading.Condition()
        self._jobs: "OrderedDict[str, _BoardJob]" = OrderedDict()
        # Fleet bookkeeping for GET /workers: every worker id the board
        # has ever seen this process lifetime (leases are ephemeral, so
        # this is observability state, never scheduling state).
        self._worker_stats: Dict[str, Dict[str, float]] = {}

    @property
    def checkpoint(self) -> SweepCheckpoint:
        """The per-seed checkpoint store the board appends into."""
        return self._checkpoint

    def _stats_for(self, worker: str) -> Dict[str, float]:
        stats = self._worker_stats.get(worker)
        if stats is None:
            stats = {"claims": 0, "seeds_landed": 0, "last_upload": -1.0}
            self._worker_stats[worker] = stats
        return stats

    # ------------------------------------------------------------------
    # Scheduler side
    # ------------------------------------------------------------------
    def open_job(
        self,
        job_id: str,
        spec_json: str,
        repeats: int,
        base_seed: int,
        kernel: Optional[str],
        setup_kernel: Optional[str],
        key: str,
        retry: RetryPolicy,
        shards: List[Tuple[int, ...]],
        done: Set[int],
    ) -> None:
        """Publish one job's missing shards for claim."""
        with self._lock:
            self._jobs[job_id] = _BoardJob(
                job_id, spec_json, repeats, base_seed, kernel,
                setup_kernel, key, retry, shards, done,
            )
            self._lock.notify_all()

    def close_job(self, job_id: str) -> None:
        """Withdraw a job (finished, interrupted or halted).  Uploads
        that arrive afterwards report ``known: false`` so stranded
        workers abandon the shard instead of reporting failures."""
        with self._lock:
            self._jobs.pop(job_id, None)
            # No waiter needs this today (a job's own scheduler closes
            # it, after its wait); kept so every board mutation wakes.
            self._lock.notify_all()

    def job_finished(self, job_id: str) -> bool:
        """Whether every outstanding seed is durable or quarantined."""
        with self._lock:
            job = self._jobs.get(job_id)
            return job is None or job.finished()

    def wait_finished(self, job_id: str, timeout: float) -> bool:
        """Block until the job is finished or halted, or ``timeout``
        seconds pass; returns whether it is finished."""

        def settled() -> bool:
            job = self._jobs.get(job_id)
            return job is None or job.halt is not None or job.finished()

        with self._lock:
            self._lock.wait_for(settled, timeout)
            return self.job_finished(job_id)

    def wake(self) -> None:
        """Wake every waiter to re-check (the service draining)."""
        with self._lock:
            self._lock.notify_all()

    def take_failures(self, job_id: str) -> List[FailedRun]:
        """The job's quarantine records, seed-ordered."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return []
            return sorted(job.failures, key=lambda f: f.seed)

    def halt_of(self, job_id: str) -> Optional[ServiceHalt]:
        """The injected service halt a lease grant of this job hit."""
        with self._lock:
            job = self._jobs.get(job_id)
            return None if job is None else job.halt

    def stale_workers(
        self, timeout: float, now: Optional[float] = None
    ) -> Set[str]:
        """Workers holding a lease that has landed no seed for
        ``timeout`` seconds."""
        now = time.monotonic() if now is None else now
        with self._lock:
            return {
                lease.worker
                for job in self._jobs.values()
                for lease in job.leases.values()
                if now - lease.last_advance > timeout
            }

    def revoke_stale(
        self,
        timeout: float,
        now: Optional[float] = None,
        spare: Collection[str] = (),
    ) -> int:
        """Revoke every lease that has landed no seed for ``timeout``
        seconds and re-queue its shard *blame-free* (same attempt
        number): a stalled remote lease convicts the worker or the
        network, never the seeds.  Leases of the workers in ``spare``
        (the service's local fleet, which is killed and charged through
        :meth:`fail_worker` instead) are left alone.  Returns the number
        of leases revoked."""
        now = time.monotonic() if now is None else now
        revoked = 0
        with self._lock:
            for job in self._jobs.values():
                for lease in list(job.leases.values()):
                    if (
                        now - lease.last_advance <= timeout
                        or lease.worker in spare
                    ):
                        continue
                    del job.leases[lease.shard_id]
                    job.pending.append(
                        _BoardShard(lease.shard.seeds, lease.shard.attempt, now)
                    )
                    revoked += 1
            if revoked:
                self._lock.notify_all()
        if revoked:
            default_registry().inc("service.leases.revoked", revoked)
        return revoked

    def progress(self, job_id: str) -> Optional[Dict[str, object]]:
        """The live-progress document the status endpoint serves."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            return {
                "seeds_done": len(job.done & job.outstanding),
                "seeds_total": len(job.outstanding),
                "shards": [
                    {
                        "seeds": len(lease.shard.seeds),
                        "done": len(set(lease.shard.seeds) & job.done),
                        "attempt": lease.shard.attempt,
                        "worker": lease.worker,
                    }
                    for lease in job.leases.values()
                ],
                "pending_shards": len(job.pending),
                "workers": sorted({l.worker for l in job.leases.values()}),
            }

    def workers(self, now: Optional[float] = None) -> List[Dict[str, object]]:
        """The fleet summary behind ``GET /workers``: one entry per
        worker id the board has seen, with currently-held shards and
        upload recency (``seconds_since_upload`` is ``None`` for a
        worker that has claimed but never landed a seed)."""
        now = time.monotonic() if now is None else now
        with self._lock:
            held: Dict[str, int] = {}
            for job in self._jobs.values():
                for lease in job.leases.values():
                    held[lease.worker] = held.get(lease.worker, 0) + 1
            summary = []
            for worker in sorted(self._worker_stats):
                stats = self._worker_stats[worker]
                last = stats["last_upload"]
                summary.append(
                    {
                        "worker": worker,
                        "claims": int(stats["claims"]),
                        "shards_held": held.get(worker, 0),
                        "seeds_landed": int(stats["seeds_landed"]),
                        "seconds_since_upload": (
                            None if last < 0 else round(now - last, 3)
                        ),
                    }
                )
        return summary

    # ------------------------------------------------------------------
    # Worker side (called from HTTP handler threads)
    # ------------------------------------------------------------------
    def claim(self, worker: str, now: Optional[float] = None) -> Optional[Dict[str, object]]:
        """Lease the next ready shard to ``worker``, or ``None`` (never
        blocks).

        Seeds that became durable since the shard was queued are
        filtered out of the lease — a re-queued or bisected shard only
        ever costs its still-missing seeds.
        """
        now = time.monotonic() if now is None else now
        plan = active_fault_plan()
        with self._lock:
            for job in self._jobs.values():
                if job.halt is not None:
                    continue
                for _ in range(len(job.pending)):
                    shard = job.pending.popleft()
                    if shard.ready_at > now:
                        job.pending.append(shard)
                        continue
                    missing = job.missing(shard.seeds)
                    if not missing:
                        continue  # satisfied while queued; drop it
                    if plan is not None:
                        try:
                            # The kill -9 stand-in: the service "dies"
                            # as it hands this shard out.
                            plan.before_shard(missing)
                        except ServiceHalt as halt:
                            job.halt = halt
                            job.pending.appendleft(shard)
                            self._lock.notify_all()
                            return None
                    shard.seeds = missing
                    job.next_shard += 1
                    shard_id = f"{job.job_id[:12]}.{job.next_shard}"
                    job.leases[shard_id] = _Lease(shard_id, shard, worker, now)
                    self._stats_for(worker)["claims"] += 1
                    default_registry().inc("service.leases.granted")
                    return {
                        "job": job.job_id,
                        "shard": shard_id,
                        "seeds": list(missing),
                        "attempt": shard.attempt,
                        "spec": job.spec_json,
                        "repeats": job.repeats,
                        "base_seed": job.base_seed,
                        "kernel": job.kernel,
                        "setup_kernel": job.setup_kernel,
                    }
        return None

    def hold_claim(
        self, worker: str, wait: float, stop: threading.Event
    ) -> Optional[Dict[str, object]]:
        """:meth:`claim`, held until a shard is claimable, ``wait``
        seconds pass, or ``stop`` is set.  A shard backing off wakes
        the hold at its ``ready_at``."""
        deadline = time.monotonic() + wait
        with self._lock:
            while True:
                now = time.monotonic()
                claim = self.claim(worker, now)
                if claim is not None or stop.is_set() or now >= deadline:
                    return claim
                ready = [
                    shard.ready_at
                    for job in self._jobs.values()
                    if job.halt is None
                    for shard in job.pending
                    if shard.ready_at > now
                ]
                self._lock.wait(min([deadline, *ready]) - now)

    def record_seed(
        self,
        job_id: str,
        shard_id: str,
        worker: str,
        seed: int,
        result_doc: Dict[str, object],
    ) -> Dict[str, object]:
        """One uploaded seed result: append-if-new, renew the lease.

        The append is the durability write *and* the heartbeat; dedup
        by ``(job, shard, seed)`` makes duplicated and replayed uploads
        harmless (``duplicate: true``), and an upload against a revoked
        lease is still accepted (the result is deterministic, the bytes
        are the same) but marked ``stale: true`` and renews nothing.
        """
        # Parse outside the lock: a malformed document must not poison
        # the board, and ValueError/KeyError surface as a 400 upstream.
        result = result_from_dict(result_doc)
        registry = default_registry()
        with self._lock:
            stats = self._stats_for(worker)
            stats["last_upload"] = time.monotonic()
            job = self._jobs.get(job_id)
            if job is None:
                registry.inc("service.uploads.unknown")
                return {"accepted": False, "known": False}
            duplicate = seed in job.done
            if not duplicate:
                self._checkpoint.append(job.key, seed, result)
                job.done.add(seed)
                stats["seeds_landed"] += 1
            lease = job.leases.get(shard_id)
            stale = lease is None or lease.worker != worker
            if not stale:
                lease.last_advance = time.monotonic()
                if all(s in job.done for s in lease.shard.seeds):
                    del job.leases[shard_id]
            self._lock.notify_all()
        registry.inc(
            "service.uploads.duplicate" if duplicate else "service.uploads.accepted"
        )
        if stale:
            registry.inc("service.uploads.stale")
        return {
            "accepted": not duplicate,
            "known": True,
            "duplicate": duplicate,
            "stale": stale,
        }

    def fail_shard(
        self, job_id: str, shard_id: str, worker: str, error: str
    ) -> Dict[str, object]:
        """A worker-reported shard failure (the run raised): charge the
        shard an ``error`` attempt on the :class:`Ladder`."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return {"known": False}
            lease = job.leases.get(shard_id)
            if lease is None or lease.worker != worker:
                # Revoked in the meantime: the shard is already queued
                # again, double-charging it would blame it twice.
                return {"known": True, "stale": True}
            del job.leases[shard_id]
            self._charge(job, lease.shard, "error", error)
            self._lock.notify_all()
        return {"known": True, "stale": False}

    def fail_worker(self, worker: str, kind: str, error: str) -> int:
        """Charge every lease ``worker`` holds one ``kind`` attempt (a
        local worker that died, ``crash``, or was killed wedged,
        ``timeout``).  Returns the number of leases charged."""
        charged = 0
        with self._lock:
            for job in self._jobs.values():
                for lease in list(job.leases.values()):
                    if lease.worker == worker:
                        del job.leases[lease.shard_id]
                        self._charge(job, lease.shard, kind, error)
                        charged += 1
            if charged:
                self._lock.notify_all()
        return charged

    @staticmethod
    def _charge(job: _BoardJob, shard: _BoardShard, kind: str, error: str) -> None:
        """Queue what the ladder decides for a failed shard's
        still-missing seeds (board lock held)."""
        missing = job.missing(shard.seeds)
        if not missing:
            return
        rung = job.ladder.climb(missing, shard.attempt, kind, error)
        ready_at = time.monotonic() + rung.delay
        for seeds, attempt in rung.requeue:
            job.pending.append(_BoardShard(seeds, attempt, ready_at))
        if rung.failure is not None:
            job.quarantined.add(rung.failure.seed)
            job.failures.append(rung.failure)

    def release_shard(
        self, job_id: str, shard_id: str, worker: str
    ) -> Dict[str, object]:
        """A worker handing its lease back voluntarily (graceful
        drain): re-queue the remainder blame-free, immediately."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return {"known": False}
            lease = job.leases.get(shard_id)
            if lease is None or lease.worker != worker:
                return {"known": True, "stale": True}
            del job.leases[shard_id]
            missing = job.missing(lease.shard.seeds)
            if missing:
                job.pending.append(
                    _BoardShard(missing, lease.shard.attempt, time.monotonic())
                )
            self._lock.notify_all()
        default_registry().inc("service.leases.released")
        return {"known": True, "stale": False}

    def complete_shard(
        self, job_id: str, shard_id: str, worker: str
    ) -> Dict[str, object]:
        """A worker declaring its shard done (all seeds uploaded).  The
        last accepted upload usually released the lease already; this
        closes the loop when every seed was deduped away instead."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return {"known": False}
            lease = job.leases.get(shard_id)
            if lease is not None and lease.worker == worker:
                del job.leases[shard_id]
                # No waiter checks leases today; kept so every board
                # mutation wakes.
                self._lock.notify_all()
        return {"known": job_id in self._jobs}
