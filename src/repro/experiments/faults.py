"""Injectable fault points for chaos-testing the sweep engine.

The resilience layer (:mod:`repro.experiments.resilience`) promises
that a sweep survives crashed, hung or transiently failing workers.
That promise is only testable if those failures can be *produced on
demand*, deterministically, inside real pool workers — so this module
defines a :class:`FaultPlan`: a declarative set of fault points keyed
by seed, carried to worker processes through the environment (workers
inherit ``os.environ`` under both fork and spawn start methods).

Fault kinds
-----------
``crash_seeds``
    The worker process calls ``os._exit`` before running the seed —
    the hard failure mode (a pooled sweep's or a service's local
    worker dies holding its lease).  Fires once per seed (see
    *once-only faults* below) so respawn-and-retry can succeed.
``hang_seeds``
    The worker sleeps ``hang_seconds`` before running the seed,
    simulating a wedged worker; the lease timeout is the
    only thing that can recover.  Fires once per seed.
``transient_seeds``
    The worker raises :class:`InjectedFault` on the *first* attempt at
    the seed and succeeds on retries — the retry/backoff happy path.
``poison_seeds``
    The worker raises :class:`InjectedFault` on *every* attempt — the
    shard-splitting/quarantine path.
``pickle_seeds``
    The lease board's grant of any shard containing the seed raises
    :class:`InjectedFault` once, simulating a shard that fails to reach
    its worker (a chunk that would not pickle); it is charged
    ``submit`` before a worker ever sees it.
``perturb_seeds``
    The run *completes* but its result is corrupted (``messages_sent``
    off by one) — only when the run used a non-legacy kernel.  This is
    the drill target for the runtime kernel-divergence guard: a
    silently wrong fast kernel that only a legacy re-run can expose.
``halt_seeds``
    The *service process* raises :class:`ServiceHalt` as its lease
    board hands out any shard containing the seed — the in-process stand-in
    for ``kill -9`` of the sweep service itself, leaving the job's
    record ``running`` and its checkpoint partial, exactly as a dead
    process would.  Fires once per seed; the restart-and-resume drill
    in the service chaos tests is built on it.

Network chaos (the remote-worker transport's fault points;
see :mod:`repro.service.worker`):

``drop_requests``
    The worker transport's *n*-th HTTP request (a 1-based per-transport
    ordinal) is dropped on the floor before it is sent — the client
    sees a connection error, the server sees nothing.  Fires once per
    ordinal; the transport's bounded retry/backoff must absorb it.
``delay_requests``
    The *n*-th request sleeps ``delay_seconds`` before being sent —
    latency, not loss.  Fires once per ordinal.
``duplicate_uploads``
    The upload of the listed seed's result is sent *twice*, back to
    back — the replayed-datagram case.  Fires unconditionally (no
    marker): the server's ``(job, shard, seed)`` dedup must make every
    replay harmless, however often it happens.
``partition_worker``
    Immediately before uploading the listed seed's result, the worker
    is cut off from the network for ``partition_seconds``: every
    request (uploads *and* new claims) fails client-side without being
    sent.  The server-side lease stalls, is revoked, and the shard is
    re-queued to a healthy worker; when the partition heals, the
    stranded worker's late traffic must dedup away.  Fires once per
    seed.

Storage chaos (the durable-IO seam's fault points; every writer that
flows through :mod:`repro.storage` is exercised by the same drill —
fault targets are *path substrings*, e.g. ``"sweep-"`` for checkpoint
files or ``"results/"`` for result blobs):

``torn_writes``
    The writing process lands ``enospc_after_bytes`` of the payload,
    fsyncs the fragment so it is really on disk, and ``os._exit``\\ s —
    exactly where ``SIGKILL`` mid-write would leave the file.  Fires
    once per target; the torn-line welding in ``durable_append`` plus
    the checkpoint loader's skip-corrupt-lines policy (or the atomic
    tempfile rename, for whole-artefact writes) must recover.
``short_writes``
    The write silently lands only ``enospc_after_bytes`` bytes and
    *reports success* — the lying-disk case.  Fires once per target.
``enospc_writes``
    The write lands ``enospc_after_bytes`` bytes and then raises
    ``ENOSPC`` — disk full mid-write.  Fires once per target; a CLI
    sweep must fail with a typed :class:`~repro.errors.StorageError`
    (its own exit code), a service must re-queue the job and 503 new
    submissions until a durable write succeeds again.
``readonly_writes``
    Every matching write raises ``EROFS`` before writing anything — a
    read-only remount / permission flip.  *Persistent* (no marker):
    the filesystem stays broken until the plan is deactivated.
``corrupt_checkpoint_seeds``
    The listed seed's checkpoint line is mangled in memory before the
    (successful, durable) append — silent corruption at rest.  The
    line digest makes the loader skip it; the scheduler's recovery
    pass re-runs the seed; ``fsck`` reports and repairs the debris.
    Fires once per seed.

Once-only faults (crash, hang, transient, pickle, halt, drop, delay,
partition, torn, short, enospc, corrupt) coordinate across processes
and retries through marker files in ``marker_dir``: the first process
to atomically create ``<kind>-<key>`` wins the right to fire the
fault, every later attempt proceeds normally.  ``poison``, ``perturb``,
``duplicate`` and ``readonly`` need no markers — they fire
unconditionally.

Nothing in this module runs, or even loads, unless a plan is active:
the hot paths call :func:`~repro.experiments.options.fault_plan`, one
environment lookup returning ``None`` in production, which imports this
module only when :data:`~repro.experiments.options.FAULT_PLAN_ENV` is
set.
"""

from __future__ import annotations

import errno
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional, Sequence, Tuple

from ..records import Record, replace
from .options import FAULT_PLAN_ENV


class InjectedFault(RuntimeError):
    """An artificial failure raised by an active :class:`FaultPlan`.

    Deliberately *not* a :class:`~repro.errors.ReproError`: injected
    faults stand in for arbitrary third-party failures (a segfaulting
    extension, a flaky filesystem), which the supervisor must handle
    without recognising them.
    """


class ServiceHalt(BaseException):
    """The ``halt_seeds`` fault: the service process "dies" here.

    A :class:`BaseException` so no retry/quarantine machinery between
    the fault point and the service's main loop can swallow it — the
    real event it stands in for (``SIGKILL``) is not catchable either.
    """


class FaultPlan(Record):
    """A declarative, environment-carried set of fault injections.

    Activate with :meth:`activated` (a context manager) *before* the
    worker pool is created (for a local-mode service: before its first
    job forks the workers) so child processes inherit the environment;
    the sweep engine's fault points then consult
    :func:`active_fault_plan` in whichever process they run.
    """

    crash_seeds: Tuple[int, ...] = ()
    hang_seeds: Tuple[int, ...] = ()
    transient_seeds: Tuple[int, ...] = ()
    poison_seeds: Tuple[int, ...] = ()
    pickle_seeds: Tuple[int, ...] = ()
    perturb_seeds: Tuple[int, ...] = ()
    halt_seeds: Tuple[int, ...] = ()
    drop_requests: Tuple[int, ...] = ()
    delay_requests: Tuple[int, ...] = ()
    duplicate_uploads: Tuple[int, ...] = ()
    partition_worker: Tuple[int, ...] = ()
    torn_writes: Tuple[str, ...] = ()
    short_writes: Tuple[str, ...] = ()
    enospc_writes: Tuple[str, ...] = ()
    readonly_writes: Tuple[str, ...] = ()
    corrupt_checkpoint_seeds: Tuple[int, ...] = ()
    hang_seconds: float = 30.0
    delay_seconds: float = 0.05
    partition_seconds: float = 2.0
    enospc_after_bytes: int = 16
    marker_dir: str = ""

    def __post_init__(self) -> None:
        for name in (
            "crash_seeds",
            "hang_seeds",
            "transient_seeds",
            "pickle_seeds",
            "halt_seeds",
            "drop_requests",
            "delay_requests",
            "partition_worker",
            "torn_writes",
            "short_writes",
            "enospc_writes",
            "corrupt_checkpoint_seeds",
        ):
            if getattr(self, name) and not self.marker_dir:
                raise ValueError(
                    f"FaultPlan.{name} needs marker_dir: once-only faults "
                    "coordinate across processes through marker files"
                )

    # ------------------------------------------------------------------
    # Environment round trip
    # ------------------------------------------------------------------
    def to_env(self) -> str:
        """Serialise the plan for :data:`FAULT_PLAN_ENV`."""
        payload = {name: getattr(self, name) for name in self._fields}
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_env(cls, raw: str) -> "FaultPlan":
        """Rebuild a plan from its :meth:`to_env` serialisation."""
        payload = json.loads(raw)
        for name, value in list(payload.items()):
            if isinstance(value, list):
                payload[name] = tuple(value)
        return cls(**payload)

    @contextmanager
    def activated(self) -> Iterator["FaultPlan"]:
        """Install the plan in this process's environment (and thus in
        every worker spawned while active); restore the prior state on
        exit."""
        previous = os.environ.get(FAULT_PLAN_ENV)
        os.environ[FAULT_PLAN_ENV] = self.to_env()
        try:
            yield self
        finally:
            if previous is None:
                os.environ.pop(FAULT_PLAN_ENV, None)
            else:
                os.environ[FAULT_PLAN_ENV] = previous

    # ------------------------------------------------------------------
    # Fault points
    # ------------------------------------------------------------------
    def _once(self, kind: str, seed: int) -> bool:
        """Atomically claim the one firing of a once-only fault."""
        marker = Path(self.marker_dir) / f"{kind}-{seed}"
        try:
            marker.parent.mkdir(parents=True, exist_ok=True)
            marker.touch(exist_ok=False)
        except FileExistsError:
            return False
        except OSError:
            return False
        return True

    def before_seed(self, seed: int) -> None:
        """Worker-side fault point, called before each seed runs."""
        if seed in self.crash_seeds and self._once("crash", seed):
            os._exit(17)
        if seed in self.hang_seeds and self._once("hang", seed):
            time.sleep(self.hang_seconds)
        if seed in self.transient_seeds and self._once("transient", seed):
            raise InjectedFault(f"injected transient failure for seed {seed}")
        if seed in self.poison_seeds:
            raise InjectedFault(f"injected poison failure for seed {seed}")

    def before_submit(self, seeds: Sequence[int]) -> None:
        """Board-side fault point, called before a shard is leased
        (simulates the shard failing to reach its worker)."""
        for seed in seeds:
            if seed in self.pickle_seeds and self._once("pickle", seed):
                raise InjectedFault(
                    f"injected chunk-pickle failure for seed {seed}"
                )

    def before_shard(self, seeds: Sequence[int]) -> None:
        """Service-side fault point, called before the lease board hands
        a shard out (simulates the service process dying mid-job)."""
        for seed in seeds:
            if seed in self.halt_seeds and self._once("halt", seed):
                raise ServiceHalt(
                    f"injected service halt before shard containing seed {seed}"
                )

    # ------------------------------------------------------------------
    # Network chaos (remote-worker transport fault points)
    # ------------------------------------------------------------------
    def transport_drop(self, ordinal: int) -> bool:
        """Whether the transport's ``ordinal``-th request should be
        dropped before it is sent (once per listed ordinal)."""
        return ordinal in self.drop_requests and self._once("drop", ordinal)

    def transport_delay(self, ordinal: int) -> bool:
        """Whether the ``ordinal``-th request should sleep
        ``delay_seconds`` before being sent (once per listed ordinal)."""
        return ordinal in self.delay_requests and self._once("delay", ordinal)

    def partition_before_upload(self, seed: int) -> bool:
        """Whether the worker should partition itself for
        ``partition_seconds`` instead of uploading ``seed``'s result
        (once per listed seed)."""
        return seed in self.partition_worker and self._once("partition", seed)

    def duplicate_upload(self, seed: int) -> bool:
        """Whether ``seed``'s upload should be sent twice
        (unconditional — replays must always be harmless)."""
        return seed in self.duplicate_uploads

    # ------------------------------------------------------------------
    # Storage chaos (the durable-IO seam's fault points)
    # ------------------------------------------------------------------
    def storage_write_fault(self, path, handle, data: bytes) -> bytes:
        """The injection point inside :mod:`repro.storage.io`.

        Called with the open file ``handle`` immediately before the
        payload ``data`` is written to ``path``.  Returns the bytes to
        actually write (``short`` truncates them); ``readonly`` and
        ``enospc`` raise the corresponding ``OSError`` for the seam to
        wrap; ``torn`` does not return at all — it lands a durable
        fragment and kills the process where SIGKILL would.
        """
        target = str(path)
        for token in self.readonly_writes:
            if token in target:
                raise OSError(
                    errno.EROFS, "injected read-only filesystem", target
                )
        partial = data[: max(0, min(self.enospc_after_bytes, len(data) - 1))]
        for token in self.enospc_writes:
            if token in target and self._once("enospc", _fs_safe(token)):
                handle.write(partial)
                handle.flush()
                raise OSError(errno.ENOSPC, "injected disk full", target)
        for token in self.torn_writes:
            if token in target and self._once("torn", _fs_safe(token)):
                handle.write(partial)
                handle.flush()
                try:
                    os.fsync(handle.fileno())
                except OSError:
                    pass
                os._exit(23)
        for token in self.short_writes:
            if token in target and self._once("short", _fs_safe(token)):
                return partial
        return data

    def corrupt_checkpoint_line(self, seed: int, line: str) -> str:
        """Mangle ``seed``'s checkpoint line before its (durable)
        append — silent corruption at rest (once per listed seed)."""
        if seed not in self.corrupt_checkpoint_seeds:
            return line
        if not self._once("corrupt", seed):
            return line
        middle = len(line) // 2
        return line[:middle] + "#CORRUPT#" + line[middle + 1 :]

    def on_result(self, config: object, seed: int, result):
        """Corrupt a completed non-legacy-kernel result (guard drills).

        The perturbation is deliberately subtle — ``messages_sent`` off
        by one — the kind of wrong answer only a differential re-run
        against the legacy engine can catch.
        """
        if seed not in self.perturb_seeds:
            return result
        if getattr(config, "kernel", None) == "legacy":
            return result
        return replace(result, messages_sent=result.messages_sent + 1)


def _fs_safe(token: str) -> str:
    """A path-substring fault target as a marker-file-name component."""
    return token.replace(os.sep, "_").replace("/", "_")


#: Cache of the last parsed plan, keyed by the raw environment string
#: so repeated lookups in a worker's seed loop stay one dict get.
_PARSED: Tuple[Optional[str], Optional[FaultPlan]] = (None, None)


def active_fault_plan() -> Optional[FaultPlan]:
    """The process's active :class:`FaultPlan`, or ``None`` (the
    production answer — one environment lookup, no parsing)."""
    global _PARSED
    raw = os.environ.get(FAULT_PLAN_ENV)
    if raw is None:
        return None
    cached_raw, cached_plan = _PARSED
    if raw == cached_raw:
        return cached_plan
    plan = FaultPlan.from_env(raw)
    _PARSED = (raw, plan)
    return plan
