"""The sweep service: durable job queue behind a thin stdlib HTTP front.

:class:`SweepService` ties the PR's pieces together into one
long-running process:

* submissions land in the durable :class:`~repro.service.store.JobStore`
  (validated first — a malformed spec is a ``400``, never a crash, and
  a duplicate dedups to the existing job by content-addressed id);
* a dispatcher thread drains the queue FIFO, running up to
  ``max_jobs`` jobs concurrently (default 1) through the one
  :class:`~repro.service.scheduler.ShardScheduler`, which publishes
  each job's shards on the service's
  :class:`~repro.service.transport.ShardBoard` for pull workers to
  lease over HTTP.  In local mode (the default) the service forks
  ``shard_workers`` such workers itself, at the first job, and keeps
  them for its lifetime; with ``remote=True`` it forks none and
  ``repro worker start --connect`` processes on any host do the work;
* nothing waits on a timer that an event can end: a submission, a
  freed job slot and a drain wake the dispatcher; the board wakes
  held claims and the scheduler; job transitions wake held status
  reads.  ``poll_interval`` only bounds those waits, so lease
  supervision and stop checks still run while nothing happens;
* the same dispatcher tick supervises lease health with one lease
  timeout (``shard_timeout``, default
  :data:`~repro.service.transport.DEFAULT_LEASE_TIMEOUT`): a local
  worker that dies holding a lease is charged a ``crash`` attempt and
  respawned; one whose lease lands no seed within the timeout is
  killed, charged ``timeout`` and respawned; a remote lease that
  times out is re-queued blame-free;
* ``GET /jobs/<id>`` serves the state machine plus live per-shard
  progress and the ``service.*`` slice of the telemetry metrics
  snapshot; ``GET /jobs/<id>/result`` serves the finished report's
  exact bytes (``410`` once ``service gc`` evicted them);
* SIGTERM (wired in the CLI) triggers a graceful drain: running jobs'
  shards stop (their finished seeds are already checkpointed) and the
  jobs go back to ``queued``; the next start resumes them.

HTTP endpoints::

    POST /jobs                   submit {"scenario": name | "spec": {...},
                                 "seeds", "base_seed", "kernel", "setup_kernel"}
                                 → 201 created / 200 deduped / 400 invalid /
                                 503 while durable writes are failing
    GET  /jobs                   list all jobs (submission order)
    GET  /jobs/<id>[?wait=s]     status + progress + metrics; with wait,
                                 held until the job's state differs from
                                 its state on arrival (at most s seconds,
                                 capped at MAX_HOLD; 400 if s is not a
                                 non-negative number)
    GET  /jobs/<id>/result       finished report (409 until terminal,
                                 410 after gc eviction)
    GET  /healthz                liveness probe
    GET  /workers                lease-board fleet summary (held shards,
                                 seeds landed, upload recency per worker)
    POST /shards/claim           {"worker": id[, "wait": s]} → a shard
                                 lease, or {"shard": null}; with wait, held
                                 until a shard is claimable, s seconds pass
                                 (capped at MAX_HOLD) or the service drains
    POST /shards/<id>/seeds      {"job", "worker", "seed", "result"} or the
                                 batched {"job", "worker", "seeds": [{"seed",
                                 "result"}, ...]} — the durability write +
                                 lease heartbeat (idempotent: dedup by
                                 (job, shard, seed); batches answer
                                 {"results": [per-seed replies]})
    POST /shards/<id>/fail       {"job", "worker", "error"} — charge the
                                 shard an attempt (retry/bisect/quarantine)
    POST /shards/<id>/release    hand a lease back blame-free (drain)
    POST /shards/<id>/done       close out a fully-uploaded lease

When the service is started with a shared token (``--token``), every
POST must carry ``Authorization: Bearer <token>`` — wrong or missing
tokens get 401 via a constant-time compare; GETs stay open.

The server is :class:`~http.server.ThreadingHTTPServer` — stdlib only,
no new dependencies, good enough for the lab-scale concurrency the
service targets.
"""

from __future__ import annotations

import gc
import hmac
import json
import multiprocessing
import os
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, Optional, Set, Tuple, Union
from urllib.parse import parse_qs, urlsplit

from ..errors import ConfigurationError, ReproError, StorageError, invalid_field
from ..experiments import (
    RetryPolicy,
    ServiceHalt,
    SweepCheckpoint,
    configure_schedule_cache,
)
from ..scenarios import ScenarioSpec, get_scenario
from ..storage import atomic_write_bytes
from ..telemetry import default_registry
from .scheduler import JobInterrupted, ShardScheduler, lower_job
from .transport import DEFAULT_LEASE_TIMEOUT, ShardBoard
from .worker import ShardWorker
from .state import (
    DONE,
    FAILED,
    QUARANTINED,
    QUEUED,
    TERMINAL_STATES,
    JobRecord,
    job_key,
)
from .store import JobStore

#: Fields a submission payload may carry.
_SUBMIT_FIELDS = frozenset(
    {"scenario", "spec", "seeds", "base_seed", "kernel", "setup_kernel"}
)

#: The longest a held request (a claim, or a status read, with
#: ``wait``) parks its handler thread, whatever the client asks for.
MAX_HOLD = 30.0


def _hold_seconds(value: object) -> float:
    """A request's ``wait``: a non-negative number of seconds, capped at
    :data:`MAX_HOLD` (``ValueError`` if not)."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not value >= 0
    ):
        raise ValueError(f"'wait' must be a non-negative number, not {value!r}")
    return min(float(value), MAX_HOLD)


class SweepService:
    """The long-running sweep service (store + scheduler + HTTP front).

    ``port=0`` binds an ephemeral port (tests); :attr:`url` reports the
    actual address once :meth:`start` has run.
    """

    def __init__(
        self,
        data_dir: Union[str, Path],
        host: str = "127.0.0.1",
        port: int = 0,
        shard_workers: int = 2,
        shards_per_job: Optional[int] = None,
        shard_timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        schedule_store: Optional[Union[str, Path]] = None,
        poll_interval: float = 0.05,
        remote: bool = False,
        max_jobs: int = 1,
        token: Optional[str] = None,
    ) -> None:
        if max_jobs < 1:
            raise invalid_field(
                "SweepService", "max_jobs", max_jobs,
                "the dispatcher needs at least one job slot",
            )
        if not remote and shard_workers < 1:
            raise invalid_field(
                "SweepService", "shard_workers", shard_workers,
                "local mode needs at least one worker",
            )
        if shard_timeout is not None and shard_timeout <= 0:
            raise invalid_field(
                "SweepService", "shard_timeout", shard_timeout,
                "the lease timeout must be positive",
            )
        self._data_dir = Path(data_dir)
        self._data_dir.mkdir(parents=True, exist_ok=True)
        self._store = JobStore(self._data_dir / "jobs.sqlite")
        self._shard_workers = shard_workers
        self._lease_timeout = (
            shard_timeout if shard_timeout is not None else DEFAULT_LEASE_TIMEOUT
        )
        self._retry = retry
        self._schedule_store = (
            str(schedule_store) if schedule_store is not None else None
        )
        self._poll_interval = poll_interval
        self._remote = remote
        self._max_jobs = max_jobs
        # One lease board shared by every job, appending into the
        # checkpoint store; one scheduler publishing jobs on it.
        self._board = ShardBoard(SweepCheckpoint(self._data_dir / "checkpoints"))
        if shards_per_job is None and not remote:
            shards_per_job = 2 * shard_workers
        self._scheduler = ShardScheduler(
            self._board,
            shards_per_job=shards_per_job,
            retry=retry,
            poll_interval=poll_interval,
        )
        # Local mode's forked workers by id (ids are never reused: a
        # respawned worker gets a fresh one, so a stale upload from the
        # dead one can never renew the new one's lease).
        self._fleet: Dict[str, multiprocessing.process.BaseProcess] = {}
        self._spawned = 0
        self._host = host
        self._port = port
        self._stop = threading.Event()
        # The dispatcher's wake-up (a submission, a freed slot, a drain)
        # and the ids of the jobs holding its slots.
        self._wake = threading.Event()
        self._active: Set[str] = set()
        # Notified on every job state transition (held status reads).
        self._changed = threading.Condition()
        self._progress: Dict[str, Dict[str, object]] = {}
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._http_thread: Optional[threading.Thread] = None
        self._drain_thread: Optional[threading.Thread] = None
        self.halted = False  # set by the chaos harness's ServiceHalt
        #: Shared secret for mutating endpoints (None = open service).
        self.token = token
        # Disk-pressure degradation: set when a durable write fails,
        # cleared when one succeeds again.  While set, new submissions
        # are refused with 503; claimed shards keep completing (their
        # durability writes carry their own errors).
        self._storage_error: Optional[str] = None
        self._storage_retry_at = 0.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def store(self) -> JobStore:
        """The durable job store."""
        return self._store

    @property
    def data_dir(self) -> Path:
        """The durable state directory (what ``fsck`` audits)."""
        return self._data_dir

    @property
    def stopping(self) -> bool:
        """Whether the service has been asked to stop (drain or halt)."""
        return self._stop.is_set()

    @property
    def url(self) -> str:
        """The service's base URL (valid after :meth:`start`)."""
        if self._httpd is None:
            raise RuntimeError("service not started")
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "SweepService":
        """Recover crashed jobs, start the scheduler loop and the HTTP
        server (both in daemon threads); returns ``self``."""
        recovered = self._store.recover()
        if recovered:
            default_registry().inc("service.recovered_jobs", recovered)
        self._stop.clear()
        self.halted = False
        self._drain_thread = threading.Thread(
            target=self._drain_loop, name="sweep-scheduler", daemon=True
        )
        self._drain_thread.start()
        self._httpd = ThreadingHTTPServer(
            (self._host, self._port), _Handler
        )
        self._httpd.daemon_threads = True
        self._httpd.service = self  # type: ignore[attr-defined]
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever, name="sweep-http", daemon=True
        )
        self._http_thread.start()
        return self

    def drain(self, timeout: float = 30.0) -> None:
        """Graceful shutdown (the SIGTERM path): stop every running
        job's shards (checkpointed seeds survive) and re-queue the jobs,
        drain and reap the local workers, stop serving HTTP, and return
        once the threads have stopped."""
        self._request_stop()
        if self._drain_thread is not None:
            self._drain_thread.join(timeout=timeout)
        self._stop_fleet()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None

    def _request_stop(self) -> None:
        """Set the stop flag and wake everything that waits on it."""
        self._stop.set()
        self._wake.set()
        self._board.wake()
        self._job_changed()

    def _job_changed(self) -> None:
        """Wake the held status reads (a job changed state)."""
        with self._changed:
            self._changed.notify_all()

    # ------------------------------------------------------------------
    # The local worker fleet (local mode only)
    # ------------------------------------------------------------------
    def _spawn_worker(self) -> None:
        """Fork one local worker: the :class:`ShardWorker` loop against
        this service's own URL."""
        self._spawned += 1
        worker_id = f"local-{self._spawned}"
        process = multiprocessing.get_context("fork").Process(
            target=self._local_worker,
            args=(worker_id, self.url, os.getpid()),
            name=f"sweep-{worker_id}",
            daemon=True,
        )
        # The child must never finalize objects inherited from this
        # threaded process: its collector closing an SQLite connection
        # that another thread held mid-call at the fork would wait on
        # that lock forever.  Frozen objects sit in the permanent
        # generation, which the child's collector skips.
        gc.freeze()
        try:
            process.start()
        finally:
            gc.unfreeze()
        self._fleet[worker_id] = process

    def _local_worker(self, worker_id: str, url: str, parent: int) -> None:
        """A local worker's process body (runs in the forked child)."""
        if self._httpd is not None:
            self._httpd.socket.close()  # the parent's listener, not ours
        if self._schedule_store is not None:
            configure_schedule_cache(store=self._schedule_store)
        worker = ShardWorker(
            url,
            worker_id=worker_id,
            poll_interval=self._poll_interval,
            retry=self._retry,
            token=self.token,
        )

        # The inherited handlers (the CLI's) would only set the dead
        # copy of the parent's stop event: drain like `worker start`.
        def _on_signal(signum: int, frame: object) -> None:
            worker.request_stop()

        signal.signal(signal.SIGTERM, _on_signal)
        signal.signal(signal.SIGINT, _on_signal)
        threading.Thread(
            target=_exit_when_orphaned, args=(parent,), daemon=True
        ).start()
        worker.run()

    def _supervise_leases(self) -> None:
        """One tick of lease supervision, under one lease timeout.

        A local worker that died is charged a ``crash`` attempt on every
        lease it held; one whose lease landed no seed within the timeout
        is killed and charged ``timeout``; either is respawned under a
        fresh id.  Stalled remote leases are re-queued blame-free.
        """
        now = time.monotonic()
        if self._fleet:
            stale = self._board.stale_workers(self._lease_timeout, now)
            for worker_id, process in list(self._fleet.items()):
                if not process.is_alive():
                    kind = "crash"
                    error = (
                        f"WorkerDied: local worker {worker_id} exited "
                        f"with code {process.exitcode}"
                    )
                elif worker_id in stale:
                    process.kill()
                    kind = "timeout"
                    error = (
                        f"TimeoutError: no seed landed in "
                        f"{self._lease_timeout}s"
                    )
                else:
                    continue
                process.join()
                del self._fleet[worker_id]
                self._board.fail_worker(worker_id, kind, error)
                default_registry().inc("service.respawns")
                self._spawn_worker()
        self._board.revoke_stale(self._lease_timeout, now, spare=self._fleet)

    def _stop_fleet(self, timeout: float = 5.0) -> None:
        """SIGTERM every local worker (each finishes its seed in flight
        and hands its lease back), then reap; stragglers are killed."""
        fleet = list(self._fleet.values())
        self._fleet.clear()
        for process in fleet:
            process.terminate()
        deadline = time.monotonic() + timeout
        for process in fleet:
            process.join(max(0.0, deadline - time.monotonic()))
            if process.is_alive():
                process.kill()
                process.join()

    # ------------------------------------------------------------------
    # Submission (shared by HTTP and any in-process caller)
    # ------------------------------------------------------------------
    def submit(self, payload: object) -> Tuple[JobRecord, bool]:
        """Validate one submission payload and enqueue (or dedup) it.

        Raises :class:`~repro.errors.ConfigurationError` on any invalid
        payload — the HTTP layer maps that to a 400 — and
        :class:`~repro.errors.StorageError` when the data dir cannot
        take durable writes (mapped to 503): a service under disk
        pressure must refuse new promises while it finishes the ones
        already claimed.
        """
        self._check_storage()
        if not isinstance(payload, dict):
            raise invalid_field(
                "Job", "payload", type(payload).__name__,
                "a submission must be a JSON object",
            )
        unknown = sorted(set(payload) - _SUBMIT_FIELDS)
        if unknown:
            raise invalid_field(
                "Job", "payload", unknown,
                f"unknown field(s); known fields: {sorted(_SUBMIT_FIELDS)}",
            )
        has_name = "scenario" in payload
        has_spec = "spec" in payload
        if has_name == has_spec:
            raise invalid_field(
                "Job", "payload", sorted(payload),
                "exactly one of 'scenario' (a registered name) or "
                "'spec' (a spec document) is required",
            )
        if has_name:
            spec = get_scenario(payload["scenario"])
        else:
            spec_doc = payload["spec"]
            if not isinstance(spec_doc, dict):
                raise invalid_field(
                    "Job", "spec", type(spec_doc).__name__,
                    "the spec must be a JSON object (ScenarioSpec.to_dict form)",
                )
            spec = ScenarioSpec.from_dict(spec_doc)
        for field in ("seeds", "base_seed"):
            value = payload.get(field)
            if value is not None and (
                not isinstance(value, int) or isinstance(value, bool)
            ):
                raise invalid_field("Job", field, value, "must be an integer")
        kernel = payload.get("kernel")
        setup_kernel = payload.get("setup_kernel")
        # Lowering validates everything else (kernel names, repeats >= 1,
        # placements) exactly as a direct run would.
        _, config = lower_job(
            spec,
            repeats=payload.get("seeds"),
            base_seed=payload.get("base_seed"),
            kernel=kernel,
            setup_kernel=setup_kernel,
        )
        job_id = job_key(
            spec, config.repeats, config.base_seed, kernel, setup_kernel
        )
        record = JobRecord(
            job_id=job_id,
            spec_json=spec.to_json(indent=None),
            repeats=config.repeats,
            base_seed=config.base_seed,
            kernel=kernel,
            setup_kernel=setup_kernel,
            state=QUEUED,
        )
        record, created = self._store.submit(record)
        self._wake.set()
        default_registry().inc(
            "service.submissions.created" if created else "service.submissions.deduped"
        )
        return record, created

    # ------------------------------------------------------------------
    # Disk-pressure degradation
    # ------------------------------------------------------------------
    def _check_storage(self) -> None:
        """Refuse new work while durable writes are failing.

        Two gates: the degraded flag a failed result-blob write set
        (cleared only when a blob lands again), and a small probe write
        through the durable seam — so a read-only or full data dir
        turns away submissions *before* the service promises to finish
        them.
        """
        if self._storage_error is not None:
            raise StorageError(
                f"service storage degraded: {self._storage_error}"
            )
        atomic_write_bytes(self._data_dir / ".write-probe", b"ok\n")

    def _note_storage_error(self, job: JobRecord, exc: StorageError) -> None:
        """A durable write failed mid-job: degrade, back off, and put
        the job back in the queue (its seeds are checkpointed, so the
        retry costs only the failed write)."""
        self._storage_error = str(exc)
        self._storage_retry_at = time.monotonic() + 1.0
        default_registry().inc("service.storage_errors")
        try:
            self._store.transition(job.job_id, QUEUED)
        except Exception:
            # Even the row update failed (a truly dead disk): leave the
            # job `running`; the next start's recover() re-queues it.
            pass

    # ------------------------------------------------------------------
    # The worker lease API (HTTP handler threads land here)
    # ------------------------------------------------------------------
    def claim_shard(self, payload: object) -> Tuple[int, Dict[str, object]]:
        """``POST /shards/claim``: lease the next ready shard, held for
        up to ``wait`` seconds until one is claimable."""
        if not isinstance(payload, dict):
            return 400, {"error": "the claim body must be a JSON object"}
        worker = payload.get("worker")
        if not isinstance(worker, str) or not worker:
            return 400, {"error": "a claim needs a non-empty 'worker' id"}
        try:
            wait = _hold_seconds(payload.get("wait", 0))
        except ValueError as exc:
            return 400, {"error": str(exc)}
        claim = self._board.hold_claim(worker, wait, self._stop)
        if claim is None:
            return 200, {"shard": None}
        return 200, claim

    def shard_post(
        self, shard_id: str, action: str, payload: object
    ) -> Tuple[int, Dict[str, object]]:
        """``POST /shards/<id>/{seeds,fail,release,done}``."""
        if not isinstance(payload, dict):
            return 400, {"error": "the body must be a JSON object"}
        job = payload.get("job")
        worker = payload.get("worker")
        if not isinstance(job, str) or not isinstance(worker, str):
            return 400, {"error": "'job' and 'worker' must be strings"}
        if action == "seeds":
            # One {"seed", "result"} upload, or a batch of them under
            # "seeds" answered entry-by-entry with the same per-seed
            # dedup replies a single upload gets.
            batched = "seeds" in payload
            entries = payload.get("seeds") if batched else [payload]
            if not isinstance(entries, list) or not entries:
                return 400, {
                    "error": "'seeds' must be a non-empty list of "
                    "{'seed', 'result'} entries"
                }
            pairs = []
            for entry in entries:
                if not isinstance(entry, dict):
                    return 400, {"error": "each batch entry must be an object"}
                seed = entry.get("seed")
                result = entry.get("result")
                if not isinstance(seed, int) or isinstance(seed, bool):
                    return 400, {"error": "'seed' must be an integer"}
                if not isinstance(result, dict):
                    return 400, {"error": "'result' must be a result document"}
                pairs.append((seed, result))
            replies = []
            for seed, result in pairs:
                try:
                    replies.append(
                        self._board.record_seed(job, shard_id, worker, seed, result)
                    )
                except (KeyError, TypeError, ValueError) as exc:
                    # A malformed result document must not poison the board.
                    return 400, {
                        "error": f"malformed result document: "
                        f"{type(exc).__name__}: {exc}"
                    }
            return 200, {"results": replies} if batched else replies[0]
        if action == "fail":
            error = payload.get("error")
            if not isinstance(error, str):
                return 400, {"error": "'error' must be a string"}
            return 200, self._board.fail_shard(job, shard_id, worker, error)
        if action == "release":
            return 200, self._board.release_shard(job, shard_id, worker)
        if action == "done":
            return 200, self._board.complete_shard(job, shard_id, worker)
        return 404, {"error": f"no such shard action: {action!r}"}

    # ------------------------------------------------------------------
    # Status views
    # ------------------------------------------------------------------
    def describe(self, job_id: str) -> Optional[Dict[str, object]]:
        """The status-endpoint document for one job, or ``None``."""
        record = self._store.get(job_id)
        if record is None:
            return None
        info = record.describe()
        progress = self._progress.get(job_id)
        if progress is not None:
            info["progress"] = progress
        snapshot = default_registry().snapshot()
        info["metrics"] = {
            "counters": {
                k: v
                for k, v in snapshot["counters"].items()
                if k.startswith("service.")
            },
            "gauges": {
                k: v
                for k, v in snapshot["gauges"].items()
                if k.startswith("service.")
            },
        }
        return info

    def wait_for_change(self, job_id: str, wait: float) -> None:
        """Hold until the job's state differs from its state now, the
        service stops, or ``wait`` seconds pass."""
        record = self._store.get(job_id)
        if record is None:
            return

        def changed() -> bool:
            current = self._store.get(job_id)
            return (
                self._stop.is_set()
                or current is None
                or current.state != record.state
            )

        with self._changed:
            self._changed.wait_for(changed, wait)

    def workers_summary(self) -> Dict[str, object]:
        """The fleet view behind ``GET /workers``: every worker the
        lease board has seen, with held shards and upload recency."""
        return {"remote": self._remote, "workers": self._board.workers()}

    # ------------------------------------------------------------------
    # The scheduler loop
    # ------------------------------------------------------------------
    def _drain_loop(self) -> None:
        """The dispatcher: supervise the leases, claim queued jobs and
        run up to ``max_jobs`` of them concurrently, each on its own
        thread.  With the default ``max_jobs=1`` this is a one-job FIFO
        (claims are atomic either way).  It sleeps until woken, at most
        ``poll_interval`` so lease supervision keeps ticking."""
        threads: list = []
        while not self._stop.is_set():
            # Cleared before the checks: a wake-up that lands during
            # them makes the next wait return at once.
            self._wake.clear()
            self._supervise_leases()
            threads = [t for t in threads if t.is_alive()]
            if len(self._active) >= self._max_jobs:
                self._wake.wait(self._poll_interval)
                continue
            if time.monotonic() < self._storage_retry_at:
                # Disk pressure: don't busy-loop claim/fail cycles.
                self._stop.wait(self._poll_interval)
                continue
            job = self._store.claim_next()
            if job is None:
                self._wake.wait(self._poll_interval)
                continue
            self._job_changed()
            if not self._remote and not self._fleet:
                # Forked lazily: a service that never runs a job never
                # pays for workers.
                for _ in range(self._shard_workers):
                    self._spawn_worker()
            thread = threading.Thread(
                target=self._run_one,
                args=(job,),
                name=f"sweep-job-{job.job_id[:8]}",
                daemon=True,
            )
            self._active.add(job.job_id)
            thread.start()
            threads.append(thread)
        for thread in threads:
            thread.join(timeout=30.0)

    def _run_one(self, job: JobRecord) -> None:
        try:
            spec = job.spec()
            outcome = self._scheduler.run_job(
                spec,
                repeats=job.repeats,
                base_seed=job.base_seed,
                kernel=job.kernel,
                setup_kernel=job.setup_kernel,
                stop=self._stop,
                on_progress=lambda p: self._progress.__setitem__(job.job_id, p),
            )
        except JobInterrupted:
            # Graceful drain: back to the queue, checkpoint keeps the
            # finished seeds.
            self._store.transition(job.job_id, QUEUED)
        except ServiceHalt:
            # The chaos harness's kill -9 stand-in: die *without*
            # touching the job record — recovery must do that work.
            self.halted = True
            self._request_stop()
        except StorageError as exc:
            # The disk failed a durability write mid-job: degrade and
            # re-queue (checked before ReproError — it is one, but the
            # job is retryable, not failed).
            self._note_storage_error(job, exc)
        except ReproError as exc:
            self._store.transition(job.job_id, FAILED, error=str(exc))
        except Exception as exc:  # a worker bug must not kill the service
            self._store.transition(
                job.job_id, FAILED, error=f"{type(exc).__name__}: {exc}"
            )
        else:
            state = QUARANTINED if outcome.failures else DONE
            try:
                self._store.transition(
                    job.job_id, state, result_json=outcome.to_json()
                )
            except StorageError as exc:
                self._note_storage_error(job, exc)
            else:
                self._storage_error = None
        finally:
            self._progress.pop(job.job_id, None)
            self._active.discard(job.job_id)
            self._wake.set()
            self._job_changed()


def _exit_when_orphaned(parent: int) -> None:
    """A local worker's watchdog: once the service that forked it is
    gone (``kill -9`` included), nobody can take its uploads — exit."""
    while os.getppid() == parent:
        time.sleep(0.25)
    os._exit(0)


class _Handler(BaseHTTPRequestHandler):
    """Routes requests onto the owning :class:`SweepService`."""

    server: ThreadingHTTPServer  # with a .service attribute

    @property
    def _service(self) -> SweepService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: object) -> None:
        """Silence the default stderr request log (the service's own
        telemetry covers observability)."""

    # ------------------------------------------------------------------
    def _reply(self, status: int, document: object) -> None:
        body = json.dumps(document, sort_keys=True).encode() + b"\n"
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _reply_raw(self, status: int, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _authorized(self) -> bool:
        """Bearer-token check for mutating endpoints.

        Constant-time comparison: a token service must not leak its
        secret one matching prefix byte at a time.
        """
        token = self._service.token
        if token is None:
            return True
        header = self.headers.get("Authorization", "")
        supplied = header[len("Bearer ") :] if header.startswith("Bearer ") else ""
        return hmac.compare_digest(supplied.encode(), token.encode())

    # ------------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
        try:
            length = int(self.headers.get("Content-Length", 0))
            raw = self.rfile.read(length)
            if not self._authorized():
                self._reply(401, {"error": "missing or invalid bearer token"})
                return
            try:
                payload = json.loads(raw) if raw else {}
            except ValueError:
                self._reply(400, {"error": "request body is not valid JSON"})
                return
            self._route_post(payload)
        except StorageError as exc:
            # Disk pressure: refuse new promises, keep serving reads.
            self._reply(503, {"error": str(exc)})
        except ConfigurationError as exc:
            self._reply(400, {"error": str(exc)})
        except Exception as exc:  # never a crash, never a traceback page
            self._reply(
                500, {"error": f"{type(exc).__name__}: {exc}"}
            )

    def _route_post(self, payload: object) -> None:
        parts = [p for p in self.path.split("/") if p]
        if parts == ["jobs"]:
            record, created = self._service.submit(payload)
            self._reply(
                201 if created else 200,
                {
                    "job": record.job_id,
                    "state": record.state,
                    "created": created,
                },
            )
            return
        if parts == ["shards", "claim"]:
            status, document = self._service.claim_shard(payload)
            self._reply(status, document)
            return
        if len(parts) == 3 and parts[0] == "shards":
            status, document = self._service.shard_post(
                parts[1], parts[2], payload
            )
            self._reply(status, document)
            return
        self._reply(404, {"error": f"no such endpoint: {self.path}"})

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        try:
            self._route_get()
        except Exception as exc:
            self._reply(500, {"error": f"{type(exc).__name__}: {exc}"})

    def _route_get(self) -> None:
        url = urlsplit(self.path)
        parts = [p for p in url.path.split("/") if p]
        if parts == ["healthz"]:
            self._reply(200, {"ok": True})
            return
        if parts == ["workers"]:
            self._reply(200, self._service.workers_summary())
            return
        if parts == ["jobs"]:
            self._reply(
                200,
                {"jobs": [r.describe() for r in self._service.store.list_jobs()]},
            )
            return
        if len(parts) == 2 and parts[0] == "jobs":
            wait = parse_qs(url.query).get("wait")
            if wait:
                try:
                    seconds = _hold_seconds(float(wait[-1]))
                except ValueError as exc:
                    self._reply(400, {"error": str(exc)})
                    return
                self._service.wait_for_change(parts[1], seconds)
            info = self._service.describe(parts[1])
            if info is None:
                self._reply(404, {"error": f"unknown job {parts[1]!r}"})
            else:
                self._reply(200, info)
            return
        if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "result":
            record = self._service.store.get(parts[1])
            if record is None:
                self._reply(404, {"error": f"unknown job {parts[1]!r}"})
            elif record.state in (DONE, QUARANTINED):
                if record.evicted or record.result_json is None:
                    # Terminal but evicted by `repro service gc` (or a
                    # blob fsck hasn't repaired yet): the record
                    # survives for dedup, the blob is gone.
                    self._reply(
                        410,
                        {
                            "state": record.state,
                            "error": "result evicted by gc "
                            "(resubmit after clearing the job record "
                            "to recompute)",
                        },
                    )
                    return
                self._reply_raw(200, record.result_json.encode() + b"\n")
            elif record.state in TERMINAL_STATES:  # failed
                self._reply(409, {"state": record.state, "error": record.error})
            else:
                self._reply(409, {"state": record.state})
            return
        self._reply(404, {"error": f"no such endpoint: {self.path}"})
