"""Shared on-disk schedule store: the cross-process tier of the cache.

The in-process :class:`~repro.experiments.schedule_cache.ScheduleCache`
dedups schedule builds *within* one process; concurrent service jobs
over the same topology each pay the build once per worker process.
:class:`ScheduleStore` closes that gap: a SQLite table keyed by the
SHA-256 of the existing content-addressed ``schedule_key`` tuple, so
any process that builds a schedule publishes it and every other process
fetches instead of rebuilding.

Properties the design leans on:

* **Safety** — schedule construction is deterministic in the key, so
  two processes racing to publish the same key write identical values;
  ``INSERT OR IGNORE`` under SQLite's own locking makes the race
  harmless (first writer wins, the value is the same either way).
* **Truthful stats** — the store is consulted only on an in-memory
  miss, through :meth:`ScheduleCache.get_or_build`'s store hook; the
  cache's ``misses`` counter keeps meaning "a build happened here"
  (a store fetch increments ``store_hits`` instead — see the cache).
* **Per-call connections** — every operation opens, uses and closes
  its own connection (with a busy timeout), so the store object is
  safe to share across threads and survives fork/spawn into workers.
* **Opt-in** — nothing changes unless a store is attached; the
  in-memory LRU stays the default everywhere.

A corrupt or unreadable row (torn write on a dying host) deserialises
to ``None`` and the caller simply rebuilds — the store can lose
entries, never invent them.
"""

from __future__ import annotations

import pickle
import sqlite3
from contextlib import contextmanager
from hashlib import sha256
from pathlib import Path
from typing import Iterator, Optional, Tuple, Union

from ..core import Schedule
from .schedule_cache import structure_digest

#: On-disk format version; part of the table name so a format change
#: can never silently read old rows.
STORE_VERSION = 1

_TABLE = f"schedules_v{STORE_VERSION}"


def store_key(key: Tuple) -> str:
    """The SHA-256 hex digest of one ``schedule_key`` tuple.

    A key led by a :func:`~repro.experiments.schedule_cache.topology_structure`
    digests as if it were led by that structure's digest.  The rest of
    the tuple contains only primitives with stable ``repr``\\ s
    (strings, ints, bools, ``None``), so the digest is identical across
    processes and hosts — the same content-addressing argument the
    in-memory cache already relies on.
    """
    fingerprint = key[0]
    if not isinstance(fingerprint, str):
        key = (structure_digest(fingerprint),) + tuple(key[1:])
    return sha256(repr(key).encode()).hexdigest()


class ScheduleStore:
    """A SQLite-backed, concurrency-safe map from schedule keys to
    built :class:`~repro.core.Schedule` objects.

    ``hits``/``misses`` count this store's own lookups (fetches that
    found / did not find a row); they are surfaced through the attached
    cache's ``stats()`` as ``store_hits``/``store_misses``.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self._path = Path(path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        with self._connect() as conn:
            conn.execute(
                f"CREATE TABLE IF NOT EXISTS {_TABLE} ("
                "  key TEXT PRIMARY KEY,"
                "  schedule BLOB NOT NULL"
                ")"
            )

    @property
    def path(self) -> Path:
        """The backing database file."""
        return self._path

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

    def get(self, key: Tuple) -> Optional[Schedule]:
        """The stored schedule for ``key``, or ``None``."""
        digest = store_key(key)
        with self._connect() as conn:
            row = conn.execute(
                f"SELECT schedule FROM {_TABLE} WHERE key = ?", (digest,)
            ).fetchone()
        if row is None:
            self.misses += 1
            return None
        try:
            schedule = pickle.loads(row[0])
        except Exception:
            # A torn or foreign row: treat as absent, the caller rebuilds.
            self.misses += 1
            return None
        self.hits += 1
        return schedule

    def put(self, key: Tuple, schedule: Schedule) -> None:
        """Publish a built schedule (first writer wins; racing writers
        carry identical values, so losing the race loses nothing)."""
        digest = store_key(key)
        payload = pickle.dumps(schedule, protocol=pickle.HIGHEST_PROTOCOL)
        with self._connect() as conn:
            conn.execute(
                f"INSERT OR IGNORE INTO {_TABLE} (key, schedule) VALUES (?, ?)",
                (digest, payload),
            )

    def __len__(self) -> int:
        with self._connect() as conn:
            (count,) = conn.execute(f"SELECT COUNT(*) FROM {_TABLE}").fetchone()
        return int(count)
