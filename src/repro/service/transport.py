"""The shard board: the one lease table every supervised sweep runs on.

Every job the :class:`~repro.service.scheduler.ShardScheduler` runs is
published here as shards, and so is every pooled sweep
(:class:`~repro.experiments.pool.SeedPool`) on a board of its own.
Pull workers lease the shards with ``POST /shards/claim`` — the
service's forked local workers and ``repro worker start --connect``
processes over HTTP, a pool's forked workers over a pipe — and every
request reaches the board through the same dispatch
(:func:`claim_shard`, :func:`shard_post`):

* every completed seed a worker ``POST /shards/<id>/seeds`` (one
  ``{"job", "worker", "seed", "result"}`` body per seed) goes to the
  job's result sink, which its owner supplies: a service job's decodes
  the document and appends it to the job's checkpoint *server-side*, so
  the durability write doubles as the lease renewal; a pool's keeps the
  result in memory;
* seed uploads are **idempotent**: the board dedups by
  ``(job, shard, seed)`` (a seed already durable is never appended
  again), so a duplicated, replayed or post-revocation-stale upload is
  harmless and a revoked lease can never double-count a seed;
* a lease ends with the upload that lands its last missing seed (a
  duplicate of it too), with a ``fail`` or with a ``release``: there
  is no separate end-of-shard request;
* failures are charged through the one
  :class:`~repro.experiments.Ladder` (retry with backoff → bisect →
  quarantine as a :class:`~repro.experiments.FailedRun`):
  :meth:`ShardBoard.fail_shard` for a run that raised (``error``),
  :meth:`ShardBoard.fail_worker` for every lease of a local worker
  that died (``crash``) or wedged past the lease timeout
  (``timeout``), and a lease the chaos harness's ``pickle_seeds``
  stops at the grant (``submit``);
* a remote lease that lands no seed within the lease timeout, and a
  lease handed back by a draining worker, are re-queued **blame-free**
  (same attempt): a silent remote worker convicts the network or the
  worker, never the seeds;
* nobody polls the board: its lock is a condition, and every change a
  waiter checks (a job opened or closed, a seed landed, a shard failed,
  released or revoked, a halt) wakes the waiters — held
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
from typing import (
    TYPE_CHECKING,
    Callable,
    Collection,
    Deque,
    Dict,
    List,
    Optional,
    Set,
    Tuple,
)

from ..experiments.options import fault_plan
from ..experiments.resilience import (
    FailedRun,
    Ladder,
    RetryPolicy,
    SweepCheckpoint,
    result_from_dict,
)
from ..telemetry import default_registry

if TYPE_CHECKING:  # the chaos harness loads only when a plan is set
    from ..experiments.faults import ServiceHalt

#: The lease timeout when the operator gives none (``--shard-timeout``):
#: a dead, wedged or partitioned worker must never wedge a job forever.
DEFAULT_LEASE_TIMEOUT = 60.0

#: The longest a held request (a claim, or a status read, with
#: ``wait``) parks its handler thread, whatever the client asks for.
MAX_HOLD = 30.0

#: Where a job's newly landed seeds go: ``sink(seed, upload)``, called
#: under the board lock before the seed counts as landed.
ResultSink = Callable[[int, object], None]


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
    """The board's context of one open job."""

    __slots__ = (
        "job_id", "lease", "sink", "ladder", "outstanding", "done",
        "quarantined", "pending", "leases", "failures", "next_shard", "halt",
    )

    def __init__(
        self,
        job_id: str,
        lease: Dict[str, object],
        sink: ResultSink,
        ladder: Ladder,
        shards: List[Tuple[int, ...]],
        done: Set[int],
    ) -> None:
        self.job_id = job_id
        # What every claim of this job carries besides its seeds.
        self.lease = lease
        self.sink = sink
        self.ladder = ladder
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
        self.halt: Optional["ServiceHalt"] = None

    def finished(self) -> bool:
        return self.outstanding <= (self.done | self.quarantined)

    def missing(self, seeds: Tuple[int, ...]) -> Tuple[int, ...]:
        """``seeds`` neither durable nor quarantined yet."""
        return tuple(
            s for s in seeds if s not in self.done and s not in self.quarantined
        )


class ShardBoard:
    """A lease table: shards out for claim by pull workers.

    Thread-safe (HTTP handler threads claim/upload while scheduler and
    fleet threads supervise); supports several concurrently open jobs —
    claims drain jobs in open order, so ``--max-jobs`` and the worker
    fleet compose.  A job's result sink runs under the board lock, which
    also serialises writers to one job's checkpoint file.

    ``checkpoint`` is the store a service job's results are appended to
    (:meth:`open_job`); a pool's board has none.  Metrics and the
    ladder's decisions are counted under ``namespace`` and traced as
    ``unit`` instants: ``("service", "shard")`` for the service's board,
    ``("supervisor", "chunk")`` for a pool's.
    """

    def __init__(
        self,
        checkpoint: Optional[SweepCheckpoint] = None,
        namespace: str = "service",
        unit: str = "shard",
    ) -> None:
        self._checkpoint = checkpoint
        self._namespace = namespace
        self._unit = unit
        # The board's (reentrant) lock and its wake-up: every mutation
        # a waiter checks notifies while holding it.
        self._lock = threading.Condition()
        self._jobs: "OrderedDict[str, _BoardJob]" = OrderedDict()
        # Fleet bookkeeping for GET /workers: every worker id the board
        # has ever seen this process lifetime (leases are ephemeral, so
        # this is observability state, never scheduling state).
        self._worker_stats: Dict[str, Dict[str, float]] = {}

    @property
    def checkpoint(self) -> Optional[SweepCheckpoint]:
        """The per-seed checkpoint store service jobs append into."""
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
        """Publish one service job's missing shards for claim.  Each
        claim carries the job's spec and knobs, so a worker can lower
        it; each landed seed's document is decoded and appended to the
        checkpoint under ``key``."""
        checkpoint = self._checkpoint

        def append(seed: int, document: object) -> None:
            checkpoint.append(key, seed, result_from_dict(document))

        lease = {
            "spec": spec_json,
            "repeats": repeats,
            "base_seed": base_seed,
            "kernel": kernel,
            "setup_kernel": setup_kernel,
        }
        self.publish(job_id, retry, shards, done, append, lease)

    def publish(
        self,
        job_id: str,
        retry: RetryPolicy,
        shards: List[Tuple[int, ...]],
        done: Set[int],
        sink: ResultSink,
        lease: Optional[Dict[str, object]] = None,
    ) -> None:
        """Publish one job's shards for claim; ``sink`` takes each
        seed's upload the first time it lands, and every claim carries
        the fields of ``lease``."""
        ladder = Ladder(retry, self._namespace, self._unit)
        with self._lock:
            self._jobs[job_id] = _BoardJob(
                job_id, dict(lease or {}), sink, ladder, shards, done
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

    def halt_of(self, job_id: str) -> Optional["ServiceHalt"]:
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
            default_registry().inc(f"{self._namespace}.leases.revoked", revoked)
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
        plan = fault_plan()
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
                    if plan is not None and self._grant_faulted(
                        job, shard, missing, plan
                    ):
                        if job.halt is not None:
                            return None
                        continue
                    shard.seeds = missing
                    job.next_shard += 1
                    shard_id = f"{job.job_id[:12]}.{job.next_shard}"
                    job.leases[shard_id] = _Lease(shard_id, shard, worker, now)
                    self._stats_for(worker)["claims"] += 1
                    default_registry().inc(f"{self._namespace}.leases.granted")
                    return {
                        **job.lease,
                        "job": job.job_id,
                        "shard": shard_id,
                        "seeds": list(missing),
                        "attempt": shard.attempt,
                    }
        return None

    def _grant_faulted(
        self, job: _BoardJob, shard: _BoardShard, missing: Tuple[int, ...], plan
    ) -> bool:
        """The chaos harness's grant-time fault points (board lock
        held); ``True`` when one stopped this grant."""
        from ..experiments.faults import InjectedFault, ServiceHalt

        try:
            # The kill -9 stand-in: the service "dies" as it hands this
            # shard out.
            plan.before_shard(missing)
        except ServiceHalt as halt:
            job.halt = halt
            job.pending.appendleft(shard)
            self._lock.notify_all()
            return True
        try:
            # The lease never reaches a worker (a chunk that would not
            # pickle, in the pool's words): charged ``submit``.
            plan.before_submit(missing)
        except InjectedFault as exc:
            self._charge(job, shard, "submit", f"{type(exc).__name__}: {exc}")
            return True
        return False

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
        upload: object,
    ) -> Dict[str, object]:
        """One uploaded seed result: sink-if-new, renew the lease.

        The sink's write is the durability write *and* the heartbeat;
        dedup by ``(job, shard, seed)`` makes duplicated and replayed
        uploads harmless (``duplicate: true``), and an upload against a
        revoked lease is still accepted (the result is deterministic,
        the bytes are the same) but marked ``stale: true`` and renews
        nothing.  A sink that raises (a malformed document:
        ``ValueError``/``KeyError``/``TypeError``, a 400 upstream) leaves
        the seed missing and the board unchanged.
        """
        ns = self._namespace
        registry = default_registry()
        with self._lock:
            stats = self._stats_for(worker)
            stats["last_upload"] = time.monotonic()
            job = self._jobs.get(job_id)
            if job is None:
                registry.inc(f"{ns}.uploads.unknown")
                return {"accepted": False, "known": False}
            duplicate = seed in job.done
            if not duplicate:
                job.sink(seed, upload)
                job.done.add(seed)
                stats["seeds_landed"] += 1
            lease = job.leases.get(shard_id)
            stale = lease is None or lease.worker != worker
            if not stale:
                lease.last_advance = time.monotonic()
                if all(s in job.done for s in lease.shard.seeds):
                    del job.leases[shard_id]
            self._lock.notify_all()
        registry.inc(f"{ns}.uploads.duplicate" if duplicate else f"{ns}.uploads.accepted")
        if stale:
            registry.inc(f"{ns}.uploads.stale")
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
        default_registry().inc(f"{self._namespace}.leases.released")
        return {"known": True, "stale": False}


# ----------------------------------------------------------------------
# The lease requests: one dispatch for the HTTP front and the pool's pipe
# ----------------------------------------------------------------------
def hold_seconds(value: object) -> float:
    """A request's ``wait``: a non-negative number of seconds, capped at
    :data:`MAX_HOLD` (``ValueError`` if not)."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not value >= 0
    ):
        raise ValueError(f"'wait' must be a non-negative number, not {value!r}")
    return min(float(value), MAX_HOLD)


def claim_shard(
    board: ShardBoard,
    payload: object,
    stop: threading.Event,
    max_hold: float = MAX_HOLD,
) -> Tuple[int, Dict[str, object]]:
    """``POST /shards/claim``: lease the next ready shard, held for up
    to ``wait`` seconds (at most ``max_hold``) until one is claimable."""
    if not isinstance(payload, dict):
        return 400, {"error": "the claim body must be a JSON object"}
    worker = payload.get("worker")
    if not isinstance(worker, str) or not worker:
        return 400, {"error": "a claim needs a non-empty 'worker' id"}
    try:
        wait = min(hold_seconds(payload.get("wait", 0)), max_hold)
    except ValueError as exc:
        return 400, {"error": str(exc)}
    claim = board.hold_claim(worker, wait, stop)
    if claim is None:
        return 200, {"shard": None}
    return 200, claim


def shard_post(
    board: ShardBoard, shard_id: str, action: str, payload: object
) -> Tuple[int, Dict[str, object]]:
    """``POST /shards/<id>/{seeds,fail,release}``."""
    if not isinstance(payload, dict):
        return 400, {"error": "the body must be a JSON object"}
    job = payload.get("job")
    worker = payload.get("worker")
    if not isinstance(job, str) or not isinstance(worker, str):
        return 400, {"error": "'job' and 'worker' must be strings"}
    if action == "seeds":
        seed = payload.get("seed")
        if not isinstance(seed, int) or isinstance(seed, bool):
            return 400, {"error": "'seed' must be an integer"}
        if "result" not in payload:
            return 400, {"error": "an upload needs a 'result'"}
        try:
            return 200, board.record_seed(
                job, shard_id, worker, seed, payload["result"]
            )
        except (KeyError, TypeError, ValueError) as exc:
            # A malformed result document must not poison the board.
            return 400, {
                "error": f"malformed result document: "
                f"{type(exc).__name__}: {exc}"
            }
    if action == "fail":
        error = payload.get("error")
        if not isinstance(error, str):
            return 400, {"error": "'error' must be a string"}
        return 200, board.fail_shard(job, shard_id, worker, error)
    if action == "release":
        return 200, board.release_shard(job, shard_id, worker)
    return 404, {"error": f"no such shard action: {action!r}"}
