"""The durable job store: SQLite rows + atomic result-blob files.

Design rules, all in service of "a restart never loses a job":

* **Content-addressed primary key** — the job id *is* :func:`~repro.service.state.job_key`,
  so a duplicate submission is a primary-key collision resolved with
  ``INSERT OR IGNORE``: the caller gets the existing record back and
  ``created=False``.  Dedup is a property of the schema, not of any
  in-memory index that a crash could lose.
* **Per-call connections** — every method opens its own connection
  (with a generous busy timeout) and closes it before returning, making
  the store object safe to use from the HTTP handler threads and the
  scheduler thread concurrently, and trivially correct across fork: no
  open connection is ever left for a child to inherit.
* **Atomic claims** — :meth:`claim_next` moves ``queued → running``
  inside a single ``UPDATE … WHERE state='queued'`` guarded by an
  immediate transaction, so two scheduler threads (or a scheduler
  racing a recovering restart) can never both run one job.
* **Result blobs are files, not rows** — a finished report's exact
  bytes live in ``<data-dir>/results/<job_id>.json``, written through
  the crash-consistent seam (:func:`~repro.storage.atomic_write_text`)
  *before* the row flips to its terminal state.  A crash between the
  two leaves an orphan blob for a non-terminal job — debris ``repro
  service fsck`` prunes — never a ``done`` row whose report is missing
  or torn.  It also puts the largest artefact the service writes under
  the disk-fault chaos drill, and makes ``gc`` a file unlink instead
  of a row rewrite.
* **No wall clock** — ordering uses a monotonically assigned
  ``submit_order`` counter.  Nothing in the store (and therefore
  nothing in any report served from it) depends on time or host.
"""

from __future__ import annotations

import sqlite3
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, List, Optional, Tuple, Union

from ..storage import atomic_write_text
from .state import (
    DONE,
    QUARANTINED,
    QUEUED,
    RUNNING,
    JobRecord,
    check_transition,
)

#: Store format version (part of the table name: a format change can
#: never silently read old rows).  v2: the ``result`` column became
#: result-blob files plus an ``evicted`` flag.
STORE_VERSION = 2

_TABLE = f"jobs_v{STORE_VERSION}"


class JobStore:
    """Durable job records keyed by content-addressed job id."""

    def __init__(self, path: Union[str, Path]) -> None:
        self._path = Path(path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._results_dir = self._path.parent / "results"
        with self._connect() as conn:
            conn.execute(
                f"CREATE TABLE IF NOT EXISTS {_TABLE} ("
                "  job_id TEXT PRIMARY KEY,"
                "  spec TEXT NOT NULL,"
                "  repeats INTEGER NOT NULL,"
                "  base_seed INTEGER NOT NULL,"
                "  kernel TEXT,"
                "  setup_kernel TEXT,"
                "  state TEXT NOT NULL,"
                "  error TEXT,"
                "  evicted INTEGER NOT NULL DEFAULT 0,"
                "  submit_order INTEGER NOT NULL"
                ")"
            )

    @property
    def path(self) -> Path:
        """The backing database file."""
        return self._path

    @property
    def results_dir(self) -> Path:
        """The directory holding result-blob files."""
        return self._results_dir

    def result_path(self, job_id: str) -> Path:
        """The result-blob file backing one job's report bytes."""
        return self._results_dir / f"{job_id}.json"

    @contextmanager
    def _connect(self) -> Iterator[sqlite3.Connection]:
        """A fresh connection that commits (or rolls back) and closes.

        Closing matters: an unclosed connection sits in a reference
        cycle until the cyclic GC frees it, so the heap grows with every
        call, and a forked child can inherit it open.
        """
        conn = sqlite3.connect(self._path, timeout=30.0)
        try:
            conn.execute("PRAGMA busy_timeout = 30000")
            with conn:
                yield conn
        finally:
            conn.close()

    # ------------------------------------------------------------------
    # Submission (dedup by construction)
    # ------------------------------------------------------------------
    def submit(self, record: JobRecord) -> Tuple[JobRecord, bool]:
        """Insert a new job, or return the existing one it dedups to.

        Returns ``(record_on_disk, created)``.  The insert and the
        read-back run under one immediate transaction so a racing
        duplicate observes either nothing or the complete row.
        """
        with self._connect() as conn:
            conn.execute("BEGIN IMMEDIATE")
            (order,) = conn.execute(
                f"SELECT COALESCE(MAX(submit_order), 0) + 1 FROM {_TABLE}"
            ).fetchone()
            cursor = conn.execute(
                f"INSERT OR IGNORE INTO {_TABLE} "
                "(job_id, spec, repeats, base_seed, kernel, setup_kernel,"
                " state, error, evicted, submit_order) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, NULL, 0, ?)",
                (
                    record.job_id,
                    record.spec_json,
                    record.repeats,
                    record.base_seed,
                    record.kernel,
                    record.setup_kernel,
                    QUEUED,
                    order,
                ),
            )
            created = cursor.rowcount == 1
            row = conn.execute(
                f"SELECT * FROM {_TABLE} WHERE job_id = ?", (record.job_id,)
            ).fetchone()
        return self._record(row), created

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Optional[JobRecord]:
        """The job record, or ``None`` for an unknown id."""
        with self._connect() as conn:
            row = conn.execute(
                f"SELECT * FROM {_TABLE} WHERE job_id = ?", (job_id,)
            ).fetchone()
        return self._record(row) if row is not None else None

    def list_jobs(self) -> List[JobRecord]:
        """Every job, in submission order."""
        with self._connect() as conn:
            rows = conn.execute(
                f"SELECT * FROM {_TABLE} ORDER BY submit_order"
            ).fetchall()
        return [self._record(row) for row in rows]

    def load_result(self, job_id: str) -> Optional[str]:
        """The job's report bytes from its blob file, or ``None``."""
        try:
            return self.result_path(job_id).read_text()
        except OSError:
            return None

    # ------------------------------------------------------------------
    # State changes
    # ------------------------------------------------------------------
    def claim_next(self) -> Optional[JobRecord]:
        """Atomically claim the oldest queued job (``queued→running``)."""
        with self._connect() as conn:
            conn.execute("BEGIN IMMEDIATE")
            row = conn.execute(
                f"SELECT job_id FROM {_TABLE} WHERE state = ? "
                "ORDER BY submit_order LIMIT 1",
                (QUEUED,),
            ).fetchone()
            if row is None:
                return None
            conn.execute(
                f"UPDATE {_TABLE} SET state = ? WHERE job_id = ? AND state = ?",
                (RUNNING, row[0], QUEUED),
            )
            claimed = conn.execute(
                f"SELECT * FROM {_TABLE} WHERE job_id = ?", (row[0],)
            ).fetchone()
        return self._record(claimed)

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
        row flips — the crash window can only ever leave an orphan
        blob, never a terminal row without its report.  Re-queueing
        (``running → queued``) discards any stale blob so a resumed
        job starts clean.
        """
        if result_json is not None:
            atomic_write_text(self.result_path(job_id), result_json)
        with self._connect() as conn:
            conn.execute("BEGIN IMMEDIATE")
            row = conn.execute(
                f"SELECT state FROM {_TABLE} WHERE job_id = ?", (job_id,)
            ).fetchone()
            if row is None:
                raise KeyError(f"unknown job {job_id!r}")
            check_transition(row[0], new_state)
            conn.execute(
                f"UPDATE {_TABLE} SET state = ?, error = ? WHERE job_id = ?",
                (new_state, error, job_id),
            )
            updated = conn.execute(
                f"SELECT * FROM {_TABLE} WHERE job_id = ?", (job_id,)
            ).fetchone()
        if result_json is None and new_state == QUEUED:
            try:
                self.result_path(job_id).unlink(missing_ok=True)
            except OSError:
                pass
        return self._record(updated)

    def demote(self, job_id: str) -> Optional[JobRecord]:
        """Force one job back to ``queued`` — the fsck repair edge.

        Unlike :meth:`transition` this bypasses the state machine (fsck
        demotes *terminal* jobs whose artefacts are inconsistent) and
        drops the job's result blob, so the next claim re-runs from the
        checkpoint and rewrites the report atomically.
        """
        with self._connect() as conn:
            conn.execute("BEGIN IMMEDIATE")
            row = conn.execute(
                f"SELECT job_id FROM {_TABLE} WHERE job_id = ?", (job_id,)
            ).fetchone()
            if row is None:
                return None
            conn.execute(
                f"UPDATE {_TABLE} SET state = ?, error = NULL, evicted = 0 "
                "WHERE job_id = ?",
                (QUEUED, job_id),
            )
            updated = conn.execute(
                f"SELECT * FROM {_TABLE} WHERE job_id = ?", (job_id,)
            ).fetchone()
        try:
            self.result_path(job_id).unlink(missing_ok=True)
        except OSError:
            pass
        return self._record(updated)

    def recover(self) -> int:
        """Crash recovery at service start: every job the previous
        process died holding ``running`` goes back to ``queued``.  Its
        checkpoint retains the finished seeds, so re-running costs only
        the remainder.  Returns the number of jobs re-queued."""
        with self._connect() as conn:
            cursor = conn.execute(
                f"UPDATE {_TABLE} SET state = ? WHERE state = ?",
                (QUEUED, RUNNING),
            )
        return cursor.rowcount

    def gc(self, keep: int) -> List[JobRecord]:
        """Evict result blobs beyond the ``keep`` most recent terminal
        jobs (``repro service gc --keep N``).

        Ordering is by ``submit_order`` — the store's monotonic
        counter, never a wall clock — and only the blob file is
        removed (the row gains ``evicted=1``): the :class:`JobRecord`
        survives, so resubmitting an evicted job still dedups to it
        (the documented trade-off: recomputing an evicted report
        requires clearing the row).  Returns the evicted records (as
        they were *before* eviction, so callers can prune derived
        artefacts like checkpoint files).
        """
        if keep < 0:
            raise ValueError(f"gc keep must be >= 0, got {keep}")
        with self._connect() as conn:
            conn.execute("BEGIN IMMEDIATE")
            rows = conn.execute(
                f"SELECT * FROM {_TABLE} "
                "WHERE state IN (?, ?) AND evicted = 0 "
                "ORDER BY submit_order DESC",
                (DONE, QUARANTINED),
            ).fetchall()
            victims = rows[keep:]
            for row in victims:
                conn.execute(
                    f"UPDATE {_TABLE} SET evicted = 1 WHERE job_id = ?",
                    (row[0],),
                )
        records = [self._record(row) for row in victims]
        for record in records:
            try:
                self.result_path(record.job_id).unlink(missing_ok=True)
            except OSError:
                pass
        return records

    # ------------------------------------------------------------------
    def _record(self, row: Tuple) -> JobRecord:
        (
            job_id, spec, repeats, base_seed, kernel, setup_kernel,
            state, error, evicted, submit_order,
        ) = row
        result_json = None
        if state in (DONE, QUARANTINED) and not evicted:
            result_json = self.load_result(job_id)
        return JobRecord(
            job_id=job_id,
            spec_json=spec,
            repeats=repeats,
            base_seed=base_seed,
            kernel=kernel,
            setup_kernel=setup_kernel,
            state=state,
            error=error,
            result_json=result_json,
            submit_order=submit_order,
            evicted=bool(evicted),
        )
