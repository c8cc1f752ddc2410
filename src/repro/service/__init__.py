"""The resilient experiment service: durable sweep jobs over HTTP.

The ROADMAP's "experiment service + sharded sweep backend" altitude,
assembled from the substrates the earlier PRs built:

* :mod:`repro.service.state` — content-addressed job identity
  (:func:`job_key`) and the ``queued→running→done/failed/quarantined``
  state machine;
* :mod:`repro.service.store` — the durable SQLite
  :class:`JobStore` (dedup by primary key, atomic claims, crash
  recovery via ``running→queued``);
* :mod:`repro.service.scheduler` — the one :class:`ShardScheduler`:
  a job's missing seeds as seed-range shards on the lease board,
  a recovery pass for seeds lost on disk, and checkpoint-merged
  reports bit-identical to serial runs (:class:`RemoteShardScheduler`
  is its former name);
* :mod:`repro.service.api` — :class:`SweepService`, the stdlib
  ``ThreadingHTTPServer`` front (submit/status/result, shard leases,
  graceful drain, ``--max-jobs`` concurrent dispatch) and, in local
  mode, the fleet of workers it forks at its first job and
  supervises: a dead worker is charged a ``crash`` attempt, a wedged
  one is killed and charged ``timeout``, both are respawned;
* :mod:`repro.service.transport` — the :class:`ShardBoard` lease
  table every worker pulls from (claims, idempotent seed uploads that
  double as heartbeats, failures charged through the one
  :class:`~repro.experiments.Ladder`, blame-free revocation of stalled
  remote leases);
* :mod:`repro.service.worker` — the pull worker, local or remote
  (``repro worker start --connect``): :class:`WorkerTransport` with
  explicit timeouts, bounded retry/backoff and the injected network
  chaos, and the :class:`ShardWorker` pull-execute-upload loop with
  graceful SIGTERM drain;
* :mod:`repro.service.client` — the urllib :class:`ServiceClient`
  behind ``repro service submit|status|result`` (explicit timeouts,
  bounded retry with backoff on connection failures);
* :mod:`repro.service.fsck` — :func:`fsck_data_dir`, the offline
  auditor behind ``repro service fsck [--repair]``: cross-checks job
  rows, checkpoint files and result blobs, reports every inconsistency
  as a structured finding, and repairs conservatively (prune orphans,
  demote inconsistent jobs to ``queued``) so a restart reconverges.

The robustness contract, enforced by the chaos drills: worker death
(local or remote ``kill -9``), service death, network drops,
delays, duplicated uploads, partitions, duplicate submissions and
malformed specs never produce a report that differs from an
uninterrupted serial run — jobs either finish byte-identically or fail
loudly with structured quarantine records.
"""

from .api import SweepService
from .client import ServiceClient, ServiceError
from .fsck import fsck_data_dir
from .scheduler import (
    JobInterrupted,
    RemoteShardScheduler,
    ShardScheduler,
    lower_job,
)
from .transport import ShardBoard
from .worker import ShardWorker, TransportError, WorkerTransport, worker_main
from .state import (
    DONE,
    FAILED,
    JOB_STATES,
    QUARANTINED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    JobRecord,
    check_transition,
    job_key,
)
from .store import JobStore

__all__ = [
    "DONE",
    "FAILED",
    "JOB_STATES",
    "JobInterrupted",
    "JobRecord",
    "JobStore",
    "QUARANTINED",
    "QUEUED",
    "RUNNING",
    "RemoteShardScheduler",
    "ServiceClient",
    "ServiceError",
    "ShardBoard",
    "ShardScheduler",
    "ShardWorker",
    "SweepService",
    "TERMINAL_STATES",
    "TransportError",
    "WorkerTransport",
    "check_transition",
    "fsck_data_dir",
    "job_key",
    "lower_job",
    "worker_main",
]
