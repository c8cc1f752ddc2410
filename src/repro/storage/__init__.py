"""Crash-consistent storage primitives (see :mod:`repro.storage.io`).

Every on-disk artefact the repo produces — checkpoint lines, job-log
records, result blobs, telemetry exports, scenario/report files, bench
artifacts — flows through this package's two write primitives, which
is what makes the disk-fault chaos drill (``FaultPlan`` storage kinds)
and the ``repro service fsck`` audit exhaustive rather than per-writer.
"""

from .. import _lazy_exports

#: Submodule -> the public names it defines, each imported on first
#: access.
_EXPORTS = {
    "io": (
        "FSYNC_ENV",
        "atomic_write_bytes",
        "atomic_write_text",
        "decode_digest_line",
        "durable_append",
        "encode_digest_line",
        "fsync_enabled",
    ),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
