"""Shard workers: the pull-execute-upload loop behind ``repro worker
start --connect URL`` and behind a local-mode service's forked workers.

A worker is a plain process on any host that can reach the service (or
a child the service forked, talking to it over loopback):

* it ``POST /shards/claim``\\ s with a stable worker id, runs the
  leased shard's seeds through the exact
  :func:`~repro.service.scheduler.lower_job` +
  :class:`~repro.experiments.ExperimentRunner` pipeline a direct run
  uses (byte-identity starts at the lowering), and uploads
  each finished seed immediately — the upload is the durability write
  *and* the lease heartbeat;
* every HTTP call goes through :class:`WorkerTransport`: one kept-alive
  connection (:class:`~repro.service.client.HttpChannel`), explicit
  timeout, bounded retry with the deterministic
  :class:`~repro.experiments.RetryPolicy` backoff on *transport*
  errors (an HTTP status from the server is an answer, not an outage,
  and is never retried);
* uploads are idempotent server-side, so the worker retries them
  fearlessly; when the transport stays down past the retry budget the
  worker *abandons* the shard silently — the service's lease timeout
  revokes it blame-free and another worker finishes the remainder;
* SIGTERM (wired in :func:`worker_main`) drains gracefully: the seed
  in flight is finished and uploaded, the rest of the lease is handed
  back with ``POST /shards/<id>/release``, and the process exits 0.

The transport is also where the network-chaos fault points live
(:class:`~repro.experiments.FaultPlan`): dropped and delayed requests,
duplicated uploads, and self-inflicted partitions are injected here —
below the worker's control flow, exactly where a real network would
misbehave — so the chaos drills exercise the same retry/abandon/dedup
paths a lossy link would.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import threading
import time
from contextlib import nullcontext
from typing import Callable, Dict, Optional, Tuple

from ..errors import ReproError
from ..experiments import (
    ExperimentRunner,
    RetryPolicy,
    active_fault_plan,
    result_to_dict,
)
from ..scenarios import ScenarioSpec
from ..telemetry import active_tracer, default_registry
from .client import TRANSPORT_ERRORS, HttpChannel, encode_request, error_message
from .scheduler import lower_job


class TransportError(ReproError):
    """A worker-side HTTP failure.

    ``status`` is the HTTP status code when the server answered (the
    request *arrived*; retrying it would not change the answer) and
    ``0`` for transport-level failures (connection refused, timeout,
    injected drop, partition) — the retryable kind.
    """

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}" if status else message)
        self.status = status


class WorkerTransport:
    """One worker's HTTP channel to the service, with chaos injected.

    Every request gets an explicit ``timeout`` and transport-level
    failures are retried up to ``retry.max_attempts`` times with the
    deterministic backoff.  The active
    :class:`~repro.experiments.FaultPlan`'s network kinds fire here,
    keyed by a per-transport 1-based request ordinal (drop/delay) or by
    the uploading seed (duplicate/partition).
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 10.0,
        retry: Optional[RetryPolicy] = None,
        sleep: Callable[[float], None] = time.sleep,
        token: Optional[str] = None,
    ) -> None:
        self._base = base_url.rstrip("/")
        self._retry = retry if retry is not None else RetryPolicy()
        self._sleep = sleep
        self._token = token
        self._ordinal = 0
        self._partitioned_until = 0.0
        self._channel = HttpChannel(self._base, timeout)

    @property
    def base_url(self) -> str:
        return self._base

    def partition(self, seconds: float) -> None:
        """Cut this worker off: every request for the next ``seconds``
        fails client-side without being sent (the chaos stand-in for a
        network partition — the server sees only silence)."""
        self._partitioned_until = time.monotonic() + seconds
        default_registry().inc("transport.partitions")

    def post(self, path: str, payload: Dict) -> Dict:
        """POST with bounded retry on transport errors.

        HTTP error statuses raise immediately (the server answered);
        connection-level failures are retried ``max_attempts`` times
        with backoff, then raised for the caller to abandon on.
        """
        registry = default_registry()
        attempt = 0
        while True:
            attempt += 1
            try:
                return self._send(path, payload)
            except TransportError as exc:
                if exc.status or attempt >= self._retry.max_attempts:
                    raise
                registry.inc("transport.retries")
                self._sleep(self._retry.delay(attempt, key=self._ordinal))

    def _send(self, path: str, payload: Dict) -> Dict:
        self._ordinal += 1
        ordinal = self._ordinal
        registry = default_registry()
        registry.inc("transport.requests")
        plan = active_fault_plan()
        if plan is not None:
            if plan.transport_delay(ordinal):
                registry.inc("transport.delayed")
                self._sleep(plan.delay_seconds)
            if plan.transport_drop(ordinal):
                registry.inc("transport.dropped")
                raise TransportError(0, f"injected drop of request {ordinal}")
        if time.monotonic() < self._partitioned_until:
            raise TransportError(0, "worker is partitioned from the service")
        method, data, headers = encode_request(payload, self._token)
        try:
            status, body = self._channel.exchange(method, path, data, headers)
        except TRANSPORT_ERRORS as exc:
            # Refused, reset, timed out — everything retryable lands here.
            raise TransportError(0, f"cannot reach {self._base}: {exc}") from None
        if status >= 400:
            raise TransportError(status, error_message(status, body))
        return json.loads(body.decode())


class ShardWorker:
    """The supervised pull-execute-upload loop of one remote worker.

    Each claim is *held* server-side for up to ``poll_interval``
    seconds (bounded by half the request ``timeout``) until a shard is
    claimable, so an idle worker picks up new work the moment it is
    published.  After an empty reply the worker sleeps only what is
    left of its poll interval: a held claim loops at once, and a
    service that answers at once is never spun against.

    ``idle_exit`` (seconds) makes the worker exit once no work has been
    claimable for that long — how the smoke drill's workers know the
    sweep is over; a daemon deployment simply omits it and polls
    forever.  :meth:`request_stop` (the SIGTERM hook) finishes and
    uploads the seed in flight, releases the rest of the lease, and
    returns from :meth:`run`.

    ``upload_batch`` > 1 coalesces up to that many finished seeds into
    one batched ``POST /shards/<id>/seeds`` (the upload is still the
    lease heartbeat, so the batch is flushed whenever the buffer fills,
    the shard ends, a drain starts, or chaos partitions the link — at
    most ``upload_batch`` seeds ride on one heartbeat).  Dedup is
    per-seed server-side either way, so crossing a crash or duplicate
    with a batch changes nothing about the answers.
    """

    def __init__(
        self,
        base_url: str,
        worker_id: Optional[str] = None,
        poll_interval: float = 0.2,
        timeout: float = 10.0,
        retry: Optional[RetryPolicy] = None,
        idle_exit: Optional[float] = None,
        sleep: Callable[[float], None] = time.sleep,
        token: Optional[str] = None,
        upload_batch: int = 1,
    ) -> None:
        self.worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
        self.transport = WorkerTransport(
            base_url, timeout=timeout, retry=retry, sleep=sleep, token=token
        )
        self._poll = poll_interval
        self._hold = min(poll_interval, timeout / 2)
        self._idle_exit = idle_exit
        self._batch = max(1, int(upload_batch))
        self._stop = threading.Event()
        # job_id -> (runner, config): lowering a job is expensive next
        # to one seed, and a worker usually drains many shards of the
        # same job — cache per job, keyed by the service's job id.
        self._contexts: Dict[str, Tuple[ExperimentRunner, object]] = {}

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

    # ------------------------------------------------------------------
    def _context(self, claim: Dict) -> Tuple[ExperimentRunner, object]:
        job_id = claim["job"]
        context = self._contexts.get(job_id)
        if context is None:
            spec = ScenarioSpec.from_json(claim["spec"])
            topology, config = lower_job(
                spec,
                claim["repeats"],
                claim["base_seed"],
                claim.get("kernel"),
                claim.get("setup_kernel"),
            )
            context = (ExperimentRunner(topology), config)
            self._contexts[job_id] = context
        return context

    def _run_shard(self, claim: Dict) -> int:
        """Execute one leased shard; returns seeds executed.

        Failure discipline:

        * the *run* raising → report the shard failed (the service
          charges an attempt and walks its retry ladder);
        * the *upload* failing past the retry budget → abandon the
          shard silently (the lease timeout re-queues it blame-free);
        * :meth:`request_stop` mid-shard → upload the finished seed,
          release the remainder, stop.
        """
        registry = default_registry()
        tracer = active_tracer()
        job_id, shard_id = claim["job"], claim["shard"]
        runner, config = self._context(claim)
        plan = active_fault_plan()
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
            for index, seed in enumerate(claim["seeds"]):
                if self._stop.is_set():
                    if not flush():
                        registry.inc("worker.abandoned")
                        return executed
                    self._release(job_id, shard_id)
                    return executed
                if plan is not None:
                    # The same worker-side chaos points as chunk pool workers
                    # (crash/hang/transient/poison fire remotely too).
                    try:
                        plan.before_seed(seed)
                    except Exception as exc:
                        flush()
                        self._fail(job_id, shard_id, exc)
                        return executed
                try:
                    result = runner.run_once(config, seed)
                except Exception as exc:
                    flush()
                    self._fail(job_id, shard_id, exc)
                    return executed
                executed += 1
                buffer.append((seed, result_to_dict(result)))
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
        # Usually the last accepted upload already released the lease
        # server-side; this covers a shard whose seeds all deduped.
        self._post_quietly(
            f"/shards/{shard_id}/done",
            {"job": job_id, "worker": self.worker_id},
        )
        return executed

    def _flush(
        self,
        job_id: str,
        shard_id: str,
        entries: list,
        plan,
    ) -> bool:
        """Upload a buffer of finished ``(seed, document)`` pairs;
        ``False`` means the shard must be abandoned.

        A single-entry buffer takes the legacy single-seed shape (the
        common case, and what ``upload_batch=1`` always sends); larger
        buffers take the batched ``{"seeds": [...]}`` shape and are
        accepted entry-by-entry with the same per-seed dedup replies.
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
        document: Dict,
        plan,
    ) -> bool:
        """Upload one seed result (idempotent server-side); ``False``
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


def worker_main(worker: ShardWorker) -> int:
    """Run ``worker`` as this process's main loop (the ``repro worker
    start`` entry point): SIGTERM and SIGINT trigger the graceful drain.
    Returns the number of seeds the worker ran."""

    def _on_signal(signum: int, frame: object) -> None:
        worker.request_stop()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    return worker.run()
