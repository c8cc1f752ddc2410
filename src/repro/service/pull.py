"""The pull-execute-upload loop every shard worker runs, and its pipe.

:class:`PullWorker` claims a shard from a
:class:`~repro.service.transport.ShardBoard`, runs its seeds and uploads
each finished seed at once as one ``{"job", "worker", "seed",
"result"}`` body — the upload is the durability write *and* the lease
heartbeat, and the board drops the lease when the shard's last seed
lands, so a finished shard needs no closing request.  The worker
reaches the board only through a transport's ``post(path, payload)``
seam, so one loop serves every worker:

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
Every failed request is a :class:`~repro.errors.ServiceError`.  The
worker-side chaos points (crash, hang, transient, poison, duplicate
upload) fire here, in whichever process runs the loop; the network
kinds fire in the HTTP transport.

Nothing here imports the operational engine, the HTTP client or the
chaos harness: a pooled overhead sweep loads none of them.
"""

from __future__ import annotations

import signal
import threading
import time
from contextlib import nullcontext
from typing import Callable, Dict, Optional, Tuple

from ..errors import ServiceError
from ..experiments.options import fault_plan
from ..telemetry import (
    MetricsRegistry,
    SpanTracer,
    active_tracer,
    default_registry,
    tracing,
    use_registry,
)


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
            raise ServiceError(0, f"the pool's pipe closed: {exc}") from None
        if status >= 400:
            raise ServiceError(status, str(reply.get("error")))
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

    With ``telemetry`` set every shard runs under a private tracer and
    metrics registry, shipped home on the request that ends the shard:
    its last upload, its ``fail`` or its ``release``.
    """

    def __init__(
        self,
        transport,
        worker_id: str,
        poll_interval: float = 0.2,
        hold: float = 0.2,
        idle_exit: Optional[float] = None,
        run_seed: Optional[Callable[[int], object]] = None,
        telemetry: bool = False,
    ) -> None:
        self.worker_id = worker_id
        self.transport = transport
        self._poll = poll_interval
        self._hold = hold
        self._idle_exit = idle_exit
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
        except ServiceError:
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
        job_id, shard_id, seeds = claim["job"], claim["shard"], claim["seeds"]
        run_seed = self._seed_runner(claim)
        plan = fault_plan()
        executed = 0
        # The request that ends the shard: its last upload, or a
        # ``fail`` or ``release`` cutting it short.
        action, body = "release", {}
        span = (
            tracer.span(f"worker.shard:{shard_id}")
            if tracer is not None
            else nullcontext()
        )
        with span:
            for seed in seeds:
                if self._stop.is_set():
                    registry.inc("worker.released")
                    action, body = "release", {}
                    break
                try:
                    if plan is not None:
                        # Worker-side chaos: crash/hang/transient/poison.
                        plan.before_seed(seed)
                    upload = run_seed(seed)
                except Exception as exc:
                    registry.inc("worker.failures")
                    action, body = "fail", {"error": f"{type(exc).__name__}: {exc}"}
                    break
                executed += 1
                action, body = "seeds", {"seed": seed, "result": upload}
                if executed < len(seeds) and not self._post(
                    shard_id, job_id, action, body, plan
                ):
                    registry.inc("worker.abandoned")
                    return executed
        # Sent once the shard's span has closed, so it can carry the
        # shard's telemetry home.  If it does not arrive, the lease
        # timeout delivers the same outcome later.
        if not self._post(shard_id, job_id, action, body, plan, telemetry):
            if action == "seeds":
                registry.inc("worker.abandoned")
        return executed

    def _post(
        self,
        shard_id: str,
        job_id: str,
        action: str,
        body: Dict,
        plan,
        telemetry: Optional[Tuple[SpanTracer, MetricsRegistry]] = None,
    ) -> bool:
        """``POST /shards/<id>/<action>``; ``False`` means the shard
        must be abandoned: the request did not arrive (out of retries,
        or an HTTP error) or the job is gone.  An upload that does not
        arrive may still be durable; either way is fine — dedup absorbs
        a re-run, the lease timeout re-queues the remainder."""
        registry = default_registry()
        payload = {"job": job_id, "worker": self.worker_id, **body}
        sends = 1
        if action == "seeds":
            registry.inc("worker.uploads")
            if plan is not None and plan.duplicate_upload(body["seed"]):
                registry.inc("worker.duplicate_uploads")
                sends = 2
        last = payload
        if telemetry is not None:
            tracer, metrics = telemetry
            last = {
                **payload,
                "telemetry": {
                    **tracer.export_payload(),
                    "metrics": metrics.snapshot(),
                },
            }
        try:
            for send in range(sends):
                reply = self.transport.post(
                    f"/shards/{shard_id}/{action}",
                    last if send == sends - 1 else payload,
                )
        except ServiceError:
            return False
        return bool(reply.get("known", False))


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
