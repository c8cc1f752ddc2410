"""The durable job store: a digest-checked job log + atomic result blobs.

Design rules, all in service of "a restart never loses a job":

* **One append-only log** — ``<data-dir>/jobs.jsonl`` holds one record
  per submission, state transition, fsck demotion and gc eviction, each
  a digest-checked JSON line (:func:`~repro.storage.encode_digest_line`,
  the codec of the checkpoint lines) appended through
  :func:`~repro.storage.durable_append`, so every job write crosses the
  disk-fault chaos seam.  The job table is the fold of the log; a torn
  or digest-mismatched line is skipped, as a checkpoint line is.
* **Content-addressed ids** — the job id *is*
  :func:`~repro.service.state.job_key`, so a duplicate submission finds
  its job in the fold and gets it back with ``created=False``, across
  any restart.
* **Caught-up decisions under a lock** — every call takes an
  ``fcntl.flock`` on the log (exclusive to write, shared to read) and
  folds the records appended since its last read before it decides, so
  stores over one log — scheduler threads, a recovering restart, a
  ``repro service gc`` process — see each other's records and never
  both claim a job.  A record joins the fold once it is durable, and a
  read while the store writes serves the fold as it stands instead of
  waiting for the fsync.  The descriptor is closed before the call
  returns; a forked child closes its copies, so none pins the flock.
* **Result blobs are files** — a finished report's exact bytes live in
  ``<data-dir>/results/<job_id>.json``, written through the
  crash-consistent seam (:func:`~repro.storage.atomic_write_text`)
  *before* the terminal record is appended.  A crash between the two
  leaves an orphan blob for a non-terminal job — debris ``repro service
  fsck`` prunes — never a ``done`` job whose report is missing or torn.
* **No wall clock** — ordering uses a monotonically assigned
  ``submit_order`` counter.  Nothing in the store (and therefore
  nothing in any report served from it) depends on time or host.
"""

from __future__ import annotations

import fcntl
import os
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

from ..errors import StorageError, storage_failure
from ..records import replace
from ..storage import (
    atomic_write_text,
    decode_digest_line,
    durable_append,
    encode_digest_line,
)
from .state import DONE, QUARANTINED, QUEUED, RUNNING, JobRecord, check_transition

#: The job log's name in a service data dir.
JOB_LOG = "jobs.jsonl"

#: Guards every store's fold and the descriptor set below; never held
#: while a call waits for the log's flock or for an fsync.
_FOLD_LOCK = threading.Lock()
#: The log descriptors open in this process.  A fork takes _FOLD_LOCK,
#: and the child closes its copies: one kept would pin the log's flock.
_OPEN: Set[int] = set()


def _close_inherited() -> None:
    while _OPEN:
        os.close(_OPEN.pop())
    _FOLD_LOCK.release()


os.register_at_fork(
    before=_FOLD_LOCK.acquire,
    after_in_parent=_FOLD_LOCK.release,
    after_in_child=_close_inherited,
)


def job_log_path(data_dir: Union[str, Path]) -> Path:
    """The job log of ``data_dir``.  A data dir whose jobs live only in
    the SQLite store of earlier versions is refused (there is no
    migration) with a :class:`StorageError` naming the file."""
    sqlite = Path(data_dir) / "jobs.sqlite"
    log = Path(data_dir) / JOB_LOG
    if sqlite.exists() and not log.exists():
        raise StorageError(
            f"{sqlite} is a SQLite job store, which this version does not "
            f"read (jobs live in {JOB_LOG}); move it aside to start afresh",
            path=str(sqlite),
        )
    return log


class JobStore:
    """Durable job records keyed by content-addressed job id, folded
    from the job log at ``path`` (see the module docstring)."""

    def __init__(self, path: Union[str, Path]) -> None:
        self._path = Path(path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._results_dir = self._path.parent / "results"
        # The fold (jobs in submission order, without result bytes),
        # the highest submit_order in it, and how far into which file
        # it has read.
        self._jobs: Dict[str, JobRecord] = {}
        self._last_order = 0
        self._read = 0
        self._inode: Optional[int] = None
        self._writing = False  # a write of this store is in flight

    def result_path(self, job_id: str) -> Path:
        """The result-blob file backing one job's report bytes."""
        return self._results_dir / f"{job_id}.json"

    # ------------------------------------------------------------------
    # The log
    # ------------------------------------------------------------------
    @contextmanager
    def _locked(self, write: bool) -> Iterator[int]:
        """Hold the log's flock (exclusive to ``write``, shared to read)
        and _FOLD_LOCK with the fold caught up; yields the descriptor.
        A read while this store writes takes the fold as it stands, and
        :meth:`_write` lets go of _FOLD_LOCK for its fsync."""
        with _FOLD_LOCK:
            if self._writing and not write:
                yield -1
                return
            try:
                fd = os.open(self._path, os.O_RDONLY | os.O_CREAT, 0o644)
            except OSError as exc:
                raise storage_failure("open", self._path, exc) from exc
            _OPEN.add(fd)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX if write else fcntl.LOCK_SH)
            with _FOLD_LOCK:
                info = os.fstat(fd)
                if info.st_ino != self._inode or info.st_size < self._read:
                    # A new log, or one fsck --repair rewrote: fold afresh.
                    self._jobs, self._last_order = {}, 0
                    self._read, self._inode = 0, info.st_ino
                if info.st_size > self._read:
                    data = os.pread(fd, info.st_size - self._read, self._read)
                    self._read += len(data)
                    for line in data.decode("utf-8", "replace").splitlines():
                        try:
                            self._apply(decode_digest_line(line))
                        except (ValueError, KeyError, TypeError):
                            continue  # torn or corrupt: skipped
                self._writing = write
                try:
                    yield fd
                finally:
                    self._writing = False
        finally:
            with _FOLD_LOCK:
                _OPEN.discard(fd)
                os.close(fd)  # releases the flock

    def _apply(self, entry: Dict[str, object]) -> None:
        """Fold one record: a submission adds its job (once); any other
        record sets the fields it carries on a known job."""
        op = entry.pop("op")
        job_id = entry["job_id"]
        if op == "submit":
            if job_id not in self._jobs:
                self._jobs[job_id] = JobRecord(state=QUEUED, **entry)
                self._last_order = max(self._last_order, entry["submit_order"])
        elif job_id in self._jobs:
            self._jobs[job_id] = replace(self._jobs[job_id], **entry)

    def _write(self, fd: int, op: str, job_id: str, **fields: object) -> None:
        """Append one record and fold it once it is durable (the caller
        holds the exclusive lock, so no other record lands meanwhile)."""
        entry = {"op": op, "job_id": job_id, **fields}
        _FOLD_LOCK.release()
        try:
            durable_append(self._path, encode_digest_line(entry))
        finally:
            _FOLD_LOCK.acquire()
        self._apply(entry)
        self._read = os.fstat(fd).st_size

    # ------------------------------------------------------------------
    # Submission (dedup by construction) and reads
    # ------------------------------------------------------------------
    def submit(self, record: JobRecord) -> Tuple[JobRecord, bool]:
        """Record a new job, or return the existing one it dedups to.

        Returns ``(record_on_disk, created)``.
        """
        with self._locked(write=True) as fd:
            created = record.job_id not in self._jobs
            if created:
                self._write(
                    fd, "submit", record.job_id,
                    spec_json=record.spec_json,
                    repeats=record.repeats,
                    base_seed=record.base_seed,
                    kernel=record.kernel,
                    setup_kernel=record.setup_kernel,
                    submit_order=self._last_order + 1,
                )
            return self._record(self._jobs[record.job_id]), created

    def get(self, job_id: str) -> Optional[JobRecord]:
        """The job record, or ``None`` for an unknown id."""
        with self._locked(write=False):
            job = self._jobs.get(job_id)
            return self._record(job) if job is not None else None

    def list_jobs(self) -> List[JobRecord]:
        """Every job, in submission order."""
        with self._locked(write=False):
            return [self._record(job) for job in self._jobs.values()]

    # ------------------------------------------------------------------
    # State changes
    # ------------------------------------------------------------------
    def claim_next(self) -> Optional[JobRecord]:
        """Atomically claim the oldest queued job (``queued→running``)."""
        with self._locked(write=True) as fd:
            for job_id, job in self._jobs.items():
                if job.state == QUEUED:
                    self._write(fd, "state", job_id, state=RUNNING, error=None)
                    return self._jobs[job_id]
        return None

    def transition(
        self,
        job_id: str,
        new_state: str,
        error: Optional[str] = None,
        result_json: Optional[str] = None,
    ) -> JobRecord:
        """Move one job along a validated state-machine edge.

        A ``result_json`` payload is made durable (atomic blob write,
        :class:`~repro.errors.StorageError` on failure) *before* the
        terminal record is appended — the crash window can only ever
        leave an orphan blob, never a terminal job without its report.
        Re-queueing (``running → queued``) discards any stale blob so a
        resumed job starts clean.
        """
        if result_json is not None:
            atomic_write_text(self.result_path(job_id), result_json)
        with self._locked(write=True) as fd:
            if job_id not in self._jobs:
                raise KeyError(f"unknown job {job_id!r}")
            check_transition(self._jobs[job_id].state, new_state)
            self._write(fd, "state", job_id, state=new_state, error=error)
            record = self._record(self._jobs[job_id])
        if result_json is None and new_state == QUEUED:
            self._drop_result(job_id)
        return record

    def demote(self, job_id: str) -> Optional[JobRecord]:
        """Force one job back to ``queued`` — the fsck repair edge.

        Unlike :meth:`transition` this bypasses the state machine (fsck
        demotes *terminal* jobs whose artefacts are inconsistent) and
        drops the job's result blob, so the next claim re-runs from the
        checkpoint and rewrites the report atomically.
        """
        with self._locked(write=True) as fd:
            if job_id not in self._jobs:
                return None
            self._write(
                fd, "demote", job_id, state=QUEUED, error=None, evicted=False
            )
            record = self._jobs[job_id]
        self._drop_result(job_id)
        return record

    def recover(self) -> int:
        """Crash recovery at service start: every job the previous
        process died holding ``running`` goes back to ``queued``.  Its
        checkpoint retains the finished seeds, so re-running costs only
        the remainder.  Returns the number of jobs re-queued."""
        with self._locked(write=True) as fd:
            running = [job for job in self._jobs.values() if job.state == RUNNING]
            for job in running:
                self._write(fd, "state", job.job_id, state=QUEUED, error=None)
        return len(running)

    def gc(self, keep: int) -> List[JobRecord]:
        """Evict result blobs beyond the ``keep`` most recent terminal
        jobs (``repro service gc --keep N``).

        Ordering is by ``submit_order`` — the store's monotonic
        counter, never a wall clock — and only the blob file is
        removed (an eviction record marks the job ``evicted``): the
        :class:`JobRecord` survives, so resubmitting an evicted job
        still dedups to it (the documented trade-off: recomputing an
        evicted report needs a fresh data dir).  Returns the evicted
        records (as they were *before* eviction, so callers can prune
        derived artefacts like checkpoint files).
        """
        if keep < 0:
            raise ValueError(f"gc keep must be >= 0, got {keep}")
        with self._locked(write=True) as fd:
            terminal = [
                job
                for job in self._jobs.values()
                if job.state in (DONE, QUARANTINED) and not job.evicted
            ]
            victims = [self._record(job) for job in terminal[::-1][keep:]]
            for record in victims:
                self._write(fd, "evict", record.job_id, evicted=True)
        for record in victims:
            self._drop_result(record.job_id)
        return victims

    # ------------------------------------------------------------------
    def _drop_result(self, job_id: str) -> None:
        try:
            self.result_path(job_id).unlink(missing_ok=True)
        except OSError:
            pass

    def _record(self, job: JobRecord) -> JobRecord:
        """``job`` with its report bytes, if it is terminal and kept."""
        if job.state not in (DONE, QUARANTINED) or job.evicted:
            return job
        try:
            return replace(job, result_json=self.result_path(job.job_id).read_text())
        except OSError:
            return job
