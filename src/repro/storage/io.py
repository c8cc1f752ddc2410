"""Crash-consistent durable IO — the one seam every repo write crosses.

The reliability contract of the checkpoint/service stack ("kill -9
anywhere, restart, reconverge to byte-identical reports") is only as
strong as its weakest write.  This module is where the repo's write
discipline lives, in exactly two primitives:

:func:`atomic_write_bytes` / :func:`atomic_write_text`
    Whole-artefact replacement (result blobs, telemetry exports,
    scenario/report files, BENCH json).  Tempfile in the *target*
    directory → write → flush → ``fsync`` → ``os.replace`` → directory
    ``fsync``.  Readers can never observe a half-written artefact: the
    path either holds the old bytes or the new bytes, across any crash.

:func:`durable_append`
    Log-structured growth (checkpoint lines, job-log records).  Opens
    ``a+b``, welds a torn trailing line from a previous crash (a
    missing final newline gets one *before* the new record, so the new
    record is never corrupted by the old one's debris), writes the
    record in a single ``write`` call, flushes, and — by default —
    ``fsync``\\ s.  A crash mid-append loses at most the line being
    written, and the welding plus the readers' skip-corrupt-lines
    policy make that loss recoverable instead of contagious.

Both logs a data dir keeps, the sweep checkpoints and the service's job
log, share one record format (:func:`encode_digest_line`): a JSON
object with a ``check`` digest of its own serialisation, so readers and
``repro service fsck`` tell torn or rotted lines apart the same way.

Every ``OSError`` escaping either primitive is wrapped in a typed
:class:`~repro.errors.StorageError` so callers up the stack (CLI exit
codes, the service's 503-while-degraded answer) can tell "the disk
failed us" apart from ordinary sweep failures.

Fault injection
---------------
The storage chaos kinds of :class:`~repro.experiments.faults.FaultPlan`
(``torn_writes``, ``short_writes``, ``enospc_writes``,
``readonly_writes``) are injected *inside* this seam — in
:func:`_write_payload`, the one place both primitives push bytes at the
OS — so migrating a writer onto the seam automatically puts it under
the disk-chaos drill.

``fsync`` policy
----------------
``fsync=None`` (the default everywhere) defers to the
``REPRO_DURABLE_FSYNC`` environment variable: set it to ``0`` to trade
power-loss durability for speed (process-crash consistency is kept —
the atomic rename and the welded append do not depend on fsync).
PERFORMANCE.md records the measured cost.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Optional, Union

from ..errors import storage_failure
from ..experiments.options import fault_plan

__all__ = [
    "FSYNC_ENV",
    "atomic_write_bytes",
    "atomic_write_text",
    "decode_digest_line",
    "durable_append",
    "encode_digest_line",
    "fsync_enabled",
]

#: Set to ``0`` to disable fsync on durable writes (crash consistency
#: is preserved; power-loss durability is not).
FSYNC_ENV = "REPRO_DURABLE_FSYNC"


def fsync_enabled() -> bool:
    """The process-wide fsync default (see :data:`FSYNC_ENV`)."""
    return os.environ.get(FSYNC_ENV, "1") != "0"


def _write_payload(handle, data: bytes, path: Path) -> None:
    """Push ``data`` at the OS — the storage-chaos injection point.

    An active :class:`FaultPlan` whose ``storage_fault`` matches
    ``path`` fires here: ``torn`` writes half the payload and kills the
    process exactly as SIGKILL mid-write would land; ``short`` silently
    truncates the write (the caller believes it succeeded); ``enospc``
    writes half and raises ``ENOSPC``; ``readonly`` raises ``EROFS``
    before writing anything.
    """
    plan = fault_plan()
    if plan is not None:
        data = plan.storage_write_fault(path, handle, data)
    handle.write(data)


def _fsync_dir(directory: Path) -> None:
    """Best-effort fsync of a directory after a rename into it.

    Failure here (some filesystems refuse ``O_RDONLY`` dir fsync) only
    weakens power-loss durability of the *rename*; the file contents
    are already synced, so it is not worth failing the write over.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(
    path: Union[str, Path], data: bytes, fsync: Optional[bool] = None
) -> None:
    """Atomically replace ``path`` with ``data``.

    The temporary file lives in the target directory (``os.replace``
    must not cross filesystems) under a ``.<name>.tmp-<pid>`` name that
    ``repro service fsck`` recognises as crash debris.  On any failure
    the temporary is unlinked and the error is raised as a
    :class:`~repro.errors.StorageError`; the target path is untouched.
    """
    path = Path(path)
    if fsync is None:
        fsync = fsync_enabled()
    tmp = path.parent / f".{path.name}.tmp-{os.getpid()}"
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "wb") as handle:
            _write_payload(handle, data, path)
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise storage_failure("atomic_write", path, exc) from exc
    if fsync:
        _fsync_dir(path.parent)


def atomic_write_text(
    path: Union[str, Path],
    text: str,
    fsync: Optional[bool] = None,
    encoding: str = "utf-8",
) -> None:
    """:func:`atomic_write_bytes` for text payloads."""
    atomic_write_bytes(path, text.encode(encoding), fsync=fsync)


def durable_append(
    path: Union[str, Path], line: str, fsync: Optional[bool] = None
) -> None:
    """Durably append one newline-terminated record to a log file.

    ``line`` must not itself contain a newline (one record per call is
    what makes torn-write recovery line-local).  If the file's current
    tail is a torn line from an earlier crash, a welding newline is
    written *in the same OS write* as the new record, so no crash
    ordering can corrupt the new record with the old debris.
    """
    path = Path(path)
    if "\n" in line:
        raise ValueError("durable_append takes exactly one record, no newlines")
    if fsync is None:
        fsync = fsync_enabled()
    payload = (line + "\n").encode("utf-8")
    try:
        try:
            handle = open(path, "a+b")
        except FileNotFoundError:
            # The first record of a log in a directory not made yet.
            path.parent.mkdir(parents=True, exist_ok=True)
            handle = open(path, "a+b")
        with handle:
            handle.seek(0, os.SEEK_END)
            if handle.tell() > 0:
                handle.seek(-1, os.SEEK_END)
                if handle.read(1) != b"\n":
                    # Weld the torn tail before (and with) the record.
                    payload = b"\n" + payload
            _write_payload(handle, payload, path)
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
    except OSError as exc:
        raise storage_failure("durable_append", path, exc) from exc


def encode_digest_line(entry: Dict[str, object]) -> str:
    """One log record: ``entry`` as sorted-key JSON plus a ``check``
    digest of that serialisation, so corruption at rest is detectable,
    not only torn writes.  ``entry`` must carry no ``check`` key."""
    return json.dumps({**entry, "check": _digest(entry)}, sort_keys=True)


def decode_digest_line(line: str) -> Dict[str, object]:
    """Invert :func:`encode_digest_line`: ``ValueError`` for a line that
    is not a JSON object or fails its digest.  A line without one (a
    checkpoint written before digests) is taken as it stands."""
    entry = json.loads(line)
    if not isinstance(entry, dict):
        raise ValueError("a log record must be a JSON object")
    check = entry.pop("check", None)
    if check is not None and check != _digest(entry):
        raise ValueError("log line digest mismatch")
    return entry


def _digest(entry: Dict[str, object]) -> str:
    """The ``check`` of ``entry``; ``hashlib`` loads on first use, so a
    cold sweep, which writes no log, never imports it."""
    from hashlib import sha256

    return sha256(json.dumps(entry, sort_keys=True).encode()).hexdigest()[:16]
