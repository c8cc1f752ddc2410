"""The pull-execute-upload loop every shard worker runs, and its pipe.

:class:`PullWorker` claims a shard from a
:class:`~repro.service.transport.ShardBoard`, runs its seeds and uploads
each finished seed at once — the upload is the durability write *and*
the lease heartbeat.  It reaches the board only through a transport's
``post(path, payload)`` seam, so one loop serves every worker:

* a service's local workers and ``repro worker start --connect``
  processes post over HTTP
  (:class:`~repro.service.worker.WorkerTransport`, with the
  :class:`~repro.service.worker.ShardWorker` that lowers each service
  job's spec to its per-seed function);
* a pooled sweep's forked workers post over a pipe to the process that
  forked them (:class:`PipeTransport`), and run the per-seed function
  they inherited through the fork.

Failure discipline: a *run* that raises reports the shard failed (the
board charges an attempt and walks its retry ladder); an *upload* that
fails past the transport's retry budget abandons the shard silently
(the owner's lease timeout re-queues it); :meth:`PullWorker.request_stop`
mid-shard uploads the finished seed, releases the remainder, and stops.
The worker-side chaos points (crash, hang, transient, poison, duplicate
upload, partition) fire here, in whichever process runs the loop.

Nothing here imports the operational engine, the HTTP client or the
chaos harness: a pooled overhead sweep loads none of them.
"""

from __future__ import annotations

import signal
import threading
import time
from contextlib import nullcontext
from typing import Callable, Dict, Optional, Tuple

from ..errors import ReproError
from ..experiments.options import fault_plan
from ..telemetry import (
    MetricsRegistry,
    SpanTracer,
    active_tracer,
    default_registry,
    tracing,
    use_registry,
)


class TransportError(ReproError):
    """A worker-side request failure.

    ``status`` is the HTTP status code when the server answered (the
    request *arrived*; retrying it would not change the answer) and
    ``0`` for transport-level failures (connection refused, timeout,
    injected drop, partition, a closed pipe) — the retryable kind.
    """

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}" if status else message)
        self.status = status


class PipeTransport:
    """The ``post(path, payload)`` seam over one end of a pipe.

    The other end is served by the pool that forked this worker, which
    answers every request with the ``(status, document)`` the HTTP front
    would send for it (:func:`~repro.service.transport.claim_shard`,
    :func:`~repro.service.transport.shard_post`).  A closed pipe means
    the pool is gone; nothing is retried.
    """

    def __init__(self, connection) -> None:
        self._connection = connection

    def post(self, path: str, payload: Dict) -> Dict:
        try:
            self._connection.send((path, payload))
            status, reply = self._connection.recv()
        except (EOFError, OSError) as exc:
            raise TransportError(0, f"the pool's pipe closed: {exc}") from None
        if status >= 400:
            raise TransportError(status, str(reply.get("error")))
        return reply


class PullWorker:
    """The supervised pull-execute-upload loop of one worker.

    Each claim asks the board to hold it for up to ``hold`` seconds until
    a shard is claimable, so an idle worker picks up new work the moment
    it is published.  After an empty reply the worker sleeps only what
    is left of its ``poll_interval``: a held claim loops at once, and a
    board that answers at once is never spun against.

    ``run_seed`` is the per-seed function every leased seed runs through
    (its return value is the upload); subclasses that lower each job
    from its claim override :meth:`_seed_runner` instead.  ``idle_exit``
    (seconds) makes the worker exit once no work has been claimable for
    that long; :meth:`request_stop` (the SIGTERM hook) finishes and
    uploads the seed in flight, releases the rest of the lease, and
    returns from :meth:`run`.

    ``upload_batch`` > 1 coalesces up to that many finished seeds into
    one batched ``POST /shards/<id>/seeds`` (flushed whenever the buffer
    fills, the shard ends, a drain starts, or chaos partitions the link).
    Dedup is per-seed on the board either way.

    With ``telemetry`` set every shard runs under a private tracer and
    metrics registry, shipped with the shard's ``done`` report.
    """

    def __init__(
        self,
        transport,
        worker_id: str,
        poll_interval: float = 0.2,
        hold: float = 0.2,
        idle_exit: Optional[float] = None,
        upload_batch: int = 1,
        run_seed: Optional[Callable[[int], object]] = None,
        telemetry: bool = False,
    ) -> None:
        self.worker_id = worker_id
        self.transport = transport
        self._poll = poll_interval
        self._hold = hold
        self._idle_exit = idle_exit
        self._batch = max(1, int(upload_batch))
        self._run_seed = run_seed
        self._telemetry = telemetry
        self._stop = threading.Event()

    def request_stop(self) -> None:
        """Ask the loop to drain (signal-safe: just sets an event)."""
        self._stop.set()

    @property
    def stopping(self) -> bool:
        return self._stop.is_set()

    # ------------------------------------------------------------------
    def run(self) -> int:
        """Claim-execute-upload until stopped (or idle past
        ``idle_exit``); returns the number of seeds executed."""
        registry = default_registry()
        executed = 0
        idle_since: Optional[float] = None
        while not self._stop.is_set():
            asked = time.monotonic()
            claim = self._claim()
            if claim is None:
                now = time.monotonic()
                if idle_since is None:
                    idle_since = now
                elif (
                    self._idle_exit is not None
                    and now - idle_since >= self._idle_exit
                ):
                    break
                self._stop.wait(max(0.0, asked + self._poll - now))
                continue
            idle_since = None
            registry.inc("worker.shards")
            executed += self._run_shard(claim)
        return executed

    def _claim(self) -> Optional[Dict]:
        """One held claim attempt; any failure is just ``None`` (poll
        again later — a worker outlives service restarts and
        partitions)."""
        try:
            reply = self.transport.post(
                "/shards/claim", {"worker": self.worker_id, "wait": self._hold}
            )
        except TransportError:
            return None
        if not isinstance(reply, dict) or reply.get("shard") is None:
            return None
        return reply

    def _seed_runner(self, claim: Dict) -> Callable[[int], object]:
        """The per-seed function of a claim's job."""
        return self._run_seed

    # ------------------------------------------------------------------
    def _run_shard(self, claim: Dict) -> int:
        """Execute one leased shard; returns seeds executed."""
        if not self._telemetry:
            return self._execute(claim, None)
        tracer = SpanTracer()
        registry = MetricsRegistry()
        with use_registry(registry), tracing(tracer):
            return self._execute(claim, (tracer, registry))

    def _execute(
        self, claim: Dict, telemetry: Optional[Tuple[SpanTracer, MetricsRegistry]]
    ) -> int:
        registry = default_registry()
        tracer = active_tracer()
        job_id, shard_id = claim["job"], claim["shard"]
        run_seed = self._seed_runner(claim)
        plan = fault_plan()
        executed = 0
        span = (
            tracer.span(f"worker.shard:{shard_id}")
            if tracer is not None
            else None
        )
        buffer: list = []

        def flush() -> bool:
            if not buffer:
                return True
            entries = list(buffer)
            buffer.clear()
            return self._flush(job_id, shard_id, entries, plan)

        with span if span is not None else nullcontext():
            for seed in claim["seeds"]:
                if self._stop.is_set():
                    if not flush():
                        registry.inc("worker.abandoned")
                        return executed
                    self._release(job_id, shard_id)
                    return executed
                try:
                    if plan is not None:
                        # Worker-side chaos: crash/hang/transient/poison.
                        plan.before_seed(seed)
                    upload = run_seed(seed)
                except Exception as exc:
                    flush()
                    self._fail(job_id, shard_id, exc)
                    return executed
                executed += 1
                buffer.append((seed, upload))
                partitioned = (
                    plan is not None and plan.partition_before_upload(seed)
                )
                if partitioned:
                    self.transport.partition(plan.partition_seconds)
                if partitioned or len(buffer) >= self._batch:
                    if not flush():
                        registry.inc("worker.abandoned")
                        return executed
            if not flush():
                registry.inc("worker.abandoned")
                return executed
        # Usually the last accepted upload already released the lease;
        # this covers a shard whose seeds all deduped, and carries the
        # shard's telemetry home.
        done = {"job": job_id, "worker": self.worker_id}
        if telemetry is not None:
            tracer, metrics = telemetry
            done["telemetry"] = tracer.export_payload()
            done["telemetry"]["metrics"] = metrics.snapshot()
        self._post_quietly(f"/shards/{shard_id}/done", done)
        return executed

    def _flush(self, job_id: str, shard_id: str, entries: list, plan) -> bool:
        """Upload a buffer of finished ``(seed, upload)`` pairs;
        ``False`` means the shard must be abandoned.

        A single-entry buffer takes the single-seed shape (the common
        case, and what ``upload_batch=1`` always sends); larger buffers
        take the batched ``{"seeds": [...]}`` shape and are accepted
        entry-by-entry with the same per-seed dedup replies.
        """
        if len(entries) == 1:
            seed, document = entries[0]
            return self._upload(job_id, shard_id, seed, document, plan)
        registry = default_registry()
        payload = {
            "job": job_id,
            "worker": self.worker_id,
            "seeds": [
                {"seed": seed, "result": document}
                for seed, document in entries
            ],
        }
        duplicate = plan is not None and any(
            plan.duplicate_upload(seed) for seed, _ in entries
        )
        sends = 2 if duplicate else 1
        reply: Optional[Dict] = None
        for _ in range(sends):
            try:
                reply = self.transport.post(f"/shards/{shard_id}/seeds", payload)
            except TransportError:
                return False
            registry.inc("worker.uploads")
            registry.inc("worker.batched_seeds", len(entries))
            if sends == 2:
                registry.inc("worker.duplicate_uploads")
        replies = reply.get("results") if isinstance(reply, dict) else None
        if not isinstance(replies, list) or not any(
            isinstance(entry, dict) and entry.get("known", False)
            for entry in replies
        ):
            return False  # the job is gone; stop working on it
        return True

    def _upload(
        self,
        job_id: str,
        shard_id: str,
        seed: int,
        document: object,
        plan,
    ) -> bool:
        """Upload one seed result (idempotent on the board); ``False``
        means the shard must be abandoned."""
        registry = default_registry()
        payload = {
            "job": job_id,
            "worker": self.worker_id,
            "seed": seed,
            "result": document,
        }
        sends = 2 if plan is not None and plan.duplicate_upload(seed) else 1
        reply: Optional[Dict] = None
        for _ in range(sends):
            try:
                reply = self.transport.post(f"/shards/{shard_id}/seeds", payload)
            except TransportError:
                # Out of retries (or an HTTP error): the seed may or
                # may not be durable — either is fine, dedup absorbs a
                # re-run, the lease timeout re-queues the remainder.
                return False
            registry.inc("worker.uploads")
            if sends == 2:
                registry.inc("worker.duplicate_uploads")
        if reply is not None and not reply.get("known", False):
            return False  # the job is gone; stop working on it
        return True

    def _fail(self, job_id: str, shard_id: str, exc: BaseException) -> None:
        registry = default_registry()
        registry.inc("worker.failures")
        self._post_quietly(
            f"/shards/{shard_id}/fail",
            {
                "job": job_id,
                "worker": self.worker_id,
                "error": f"{type(exc).__name__}: {exc}",
            },
        )

    def _release(self, job_id: str, shard_id: str) -> None:
        registry = default_registry()
        registry.inc("worker.released")
        self._post_quietly(
            f"/shards/{shard_id}/release",
            {"job": job_id, "worker": self.worker_id},
        )

    def _post_quietly(self, path: str, payload: Dict) -> None:
        """Best-effort notification: if it does not arrive, the lease
        timeout delivers the same outcome later."""
        try:
            self.transport.post(path, payload)
        except TransportError:
            pass


def worker_main(worker: PullWorker) -> int:
    """Run ``worker`` as this process's main loop (the ``repro worker
    start`` entry point and every forked local worker): SIGTERM and
    SIGINT trigger the graceful drain.  Returns the number of seeds the
    worker ran."""

    def _on_signal(signum: int, frame: object) -> None:
        worker.request_stop()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    return worker.run()
