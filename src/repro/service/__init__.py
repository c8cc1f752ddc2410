"""The resilient experiment service: durable sweep jobs over HTTP.

The ROADMAP's "experiment service + sharded sweep backend" altitude,
assembled from the substrates the earlier PRs built:

* :mod:`repro.service.state` — content-addressed job identity
  (:func:`job_key`) and the ``queued→running→done/failed/quarantined``
  state machine;
* :mod:`repro.service.store` — the durable :class:`JobStore`, the
  fold of a digest-checked job log (dedup by content-addressed id,
  atomic claims under the log's lock, crash recovery via
  ``running→queued``);
* :mod:`repro.service.scheduler` — the one :class:`ShardScheduler`:
  a job's missing seeds as seed-range shards on the lease board,
  a recovery pass for seeds lost on disk, and checkpoint-merged
  reports bit-identical to serial runs (:class:`RemoteShardScheduler`
  is its former name);
* :mod:`repro.service.api` — :class:`SweepService`, the stdlib
  ``ThreadingHTTPServer`` front (submit/status/result, shard leases,
  graceful drain, ``--max-jobs`` concurrent dispatch) and, in local
  mode, the fleet of workers it forks at its first job;
* :mod:`repro.service.transport` — the :class:`ShardBoard` lease
  table every worker pulls from, a service's or a pooled sweep's
  (claims, idempotent seed uploads that double as heartbeats, failures
  charged through the one :class:`~repro.experiments.Ladder`,
  blame-free revocation of stalled remote leases), and the one lease
  dispatch the HTTP front and a pool's pipes share;
* :mod:`repro.service.fleet` — the forked local workers of a service
  or a pool, supervised under one set of blame rules: a dead worker is
  charged a ``crash`` attempt on its own leases, a wedged one is killed
  and charged ``timeout``, both are respawned;
* :mod:`repro.service.pull` — the one pull-execute-upload loop every
  worker runs, with graceful SIGTERM drain, and the pipe transport a
  pool's workers post through;
* :mod:`repro.service.worker` — the service's workers, local or remote
  (``repro worker start --connect``): the :class:`ShardWorker` loop over
  :class:`WorkerTransport`, a :class:`ServiceClient` with the worker's
  retry policy and the injected network chaos;
* :mod:`repro.service.client` — :class:`~repro.service.client.HttpChannel`,
  the kept-alive HTTP/1.1 exchange helper every caller of the service
  uses, and the :class:`ServiceClient` behind ``repro service
  submit|status|result`` (explicit timeouts, and the one
  transport-retry loop: bounded retry with the
  :class:`~repro.experiments.RetryPolicy` backoff on connection
  failures, :class:`ServiceError` once it gives up);
* :mod:`repro.service.fsck` — :func:`fsck_data_dir`, the offline
  auditor behind ``repro service fsck [--repair]``: checks the job
  log's and the checkpoints' lines, cross-checks job records,
  checkpoint files and result blobs, reports every inconsistency
  as a structured finding, and repairs conservatively (prune orphans,
  demote inconsistent jobs to ``queued``) so a restart reconverges.

The robustness contract, enforced by the chaos drills: worker death
(local or remote ``kill -9``), service death, network drops,
delays, duplicated uploads, partitions, duplicate submissions and
malformed specs never produce a report that differs from an
uninterrupted serial run — jobs either finish byte-identically or fail
loudly with structured quarantine records.
"""

from .. import _lazy_exports

#: Submodule -> the public names it defines, each imported on first
#: access.
_EXPORTS = {
    "api": (
        "SweepService",
    ),
    "client": (
        "ServiceClient",
        "ServiceError",
    ),
    "fsck": (
        "fsck_data_dir",
    ),
    "scheduler": (
        "JobInterrupted",
        "RemoteShardScheduler",
        "ShardScheduler",
        "lower_job",
    ),
    "transport": (
        "ShardBoard",
    ),
    "pull": (
        "worker_main",
    ),
    "worker": (
        "ShardWorker",
        "WorkerTransport",
    ),
    "state": (
        "DONE",
        "FAILED",
        "JOB_STATES",
        "QUARANTINED",
        "QUEUED",
        "RUNNING",
        "TERMINAL_STATES",
        "JobRecord",
        "check_transition",
        "job_key",
    ),
    "store": (
        "JobStore",
        "job_log_path",
    ),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
