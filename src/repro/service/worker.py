"""Service workers: the pull loop (:mod:`repro.service.pull`) over HTTP,
behind ``repro worker start --connect URL`` and a local-mode service's
forked workers.

A worker is a plain process on any host that can reach the service (or
a child the service forked, talking to it over loopback):

* it ``POST /shards/claim``\\ s with a stable worker id, runs the
  leased shard's seeds through the exact
  :func:`~repro.scenarios.lower_job` +
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
* SIGTERM (wired in :func:`~repro.service.pull.worker_main`) drains
  gracefully: the seed
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
import socket
import time
from typing import Callable, Dict, Optional

from ..experiments.options import fault_plan
from ..experiments.resilience import RetryPolicy, result_to_dict
from ..experiments.runner import ExperimentRunner
from ..scenarios import ScenarioSpec, lower_job
from ..telemetry import default_registry
from .client import TRANSPORT_ERRORS, HttpChannel, encode_request, error_message
from .pull import PullWorker, TransportError


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
        plan = fault_plan()
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


class ShardWorker(PullWorker):
    """The :class:`~repro.service.pull.PullWorker` loop of a service's
    worker, local or remote: HTTP to ``base_url`` through a
    :class:`WorkerTransport`, each claim's job lowered to its per-seed
    function.

    Each claim is held server-side for up to ``poll_interval`` seconds
    (bounded by half the request ``timeout``).  ``idle_exit`` is how the
    smoke drill's workers know the sweep is over; a daemon deployment
    simply omits it and polls forever.
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
        super().__init__(
            WorkerTransport(
                base_url, timeout=timeout, retry=retry, sleep=sleep, token=token
            ),
            worker_id or f"{socket.gethostname()}-{os.getpid()}",
            poll_interval=poll_interval,
            hold=min(poll_interval, timeout / 2),
            idle_exit=idle_exit,
            upload_batch=upload_batch,
        )
        # job_id -> per-seed function: lowering a job is expensive next
        # to one seed, and a worker usually drains many shards of the
        # same job — cache per job, keyed by the service's job id.
        self._contexts: Dict[str, Callable[[int], Dict]] = {}

    def _seed_runner(self, claim: Dict) -> Callable[[int], Dict]:
        job_id = claim["job"]
        run = self._contexts.get(job_id)
        if run is None:
            spec = ScenarioSpec.from_json(claim["spec"])
            topology, config = lower_job(
                spec,
                claim["repeats"],
                claim["base_seed"],
                claim.get("kernel"),
                claim.get("setup_kernel"),
            )
            runner = ExperimentRunner(topology)

            def run(seed: int) -> Dict:
                return result_to_dict(runner.run_once(config, seed))

            self._contexts[job_id] = run
        return run
