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
* every HTTP call goes through :class:`WorkerTransport`: a
  :class:`~repro.service.client.ServiceClient` with the worker's
  :class:`~repro.experiments.RetryPolicy`, so it shares the client's
  one kept-alive connection
  (:class:`~repro.service.client.HttpChannel`), explicit timeout and
  transport-retry loop (an HTTP status from the server is an answer,
  not an outage, and is never retried);
* uploads are idempotent server-side, so the worker retries them
  fearlessly; when the transport stays down past the retry budget the
  worker *abandons* the shard silently — the service's lease timeout
  revokes it blame-free and another worker finishes the remainder;
* SIGTERM (wired in :func:`~repro.service.pull.worker_main`) drains
  gracefully: the seed
  in flight is finished and uploaded, the rest of the lease is handed
  back with ``POST /shards/<id>/release``, and the process exits 0.

The transport is also where the network-chaos fault points live
(:class:`~repro.experiments.FaultPlan`): dropped and delayed requests
and self-inflicted partitions are injected here — below the worker's
control flow, exactly where a real network would misbehave — so the
chaos drills exercise the same retry/abandon/dedup paths a lossy link
would.  A partition fires as the seed it names is uploaded.
"""

from __future__ import annotations

import os
import socket
import time
from typing import Callable, Dict, Optional

from ..errors import ServiceError
from ..experiments.options import fault_plan
from ..experiments.resilience import RetryPolicy, result_to_dict
from ..experiments.runner import ExperimentRunner
from ..scenarios import ScenarioSpec, lower_job
from ..telemetry import default_registry
from .client import ServiceClient
from .pull import PullWorker


class WorkerTransport(ServiceClient):
    """One worker's HTTP channel to the service, with chaos injected.

    A :class:`~repro.service.client.ServiceClient` whose transport
    failures are retried on ``retry`` (default
    :class:`~repro.experiments.RetryPolicy`) with ``sleep`` waiting out
    the backoff.  The active :class:`~repro.experiments.FaultPlan`'s
    network kinds fire here, keyed by the transport's 1-based request
    ordinal (drop/delay) or by the uploading seed (partition).
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 10.0,
        retry: Optional[RetryPolicy] = None,
        sleep: Callable[[float], None] = time.sleep,
        token: Optional[str] = None,
    ) -> None:
        super().__init__(base_url, timeout=timeout, token=token)
        self._retry = retry if retry is not None else RetryPolicy()
        self._sleep = sleep
        self._partitioned_until = 0.0

    def post(self, path: str, payload: Dict) -> Dict:
        """POST through the client's retry loop; raises
        :class:`~repro.errors.ServiceError` once it gives up."""
        plan = fault_plan()
        if (
            plan is not None
            and "seed" in payload
            and plan.partition_before_upload(payload["seed"])
        ):
            # Cut this worker off: every request for the next
            # ``partition_seconds`` fails client-side without being
            # sent (the server sees only silence).
            self._partitioned_until = time.monotonic() + plan.partition_seconds
            default_registry().inc("transport.partitions")
        return self._get(path, payload)

    def _attempt(
        self,
        attempt: int,
        method: str,
        path: str,
        data: Optional[bytes],
        headers: Dict[str, str],
    ) -> bytes:
        ordinal = self._requests
        registry = default_registry()
        registry.inc("transport.requests")
        if attempt > 1:
            registry.inc("transport.retries")
        plan = fault_plan()
        if plan is not None:
            if plan.transport_delay(ordinal):
                registry.inc("transport.delayed")
                self._sleep(plan.delay_seconds)
            if plan.transport_drop(ordinal):
                registry.inc("transport.dropped")
                raise ServiceError(0, f"injected drop of request {ordinal}")
        if time.monotonic() < self._partitioned_until:
            raise ServiceError(0, "worker is partitioned from the service")
        return super()._attempt(attempt, method, path, data, headers)


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
    ) -> None:
        super().__init__(
            WorkerTransport(
                base_url, timeout=timeout, retry=retry, sleep=sleep, token=token
            ),
            worker_id or f"{socket.gethostname()}-{os.getpid()}",
            poll_interval=poll_interval,
            hold=min(poll_interval, timeout / 2),
            idle_exit=idle_exit,
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
