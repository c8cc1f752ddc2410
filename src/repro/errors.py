"""Exception hierarchy for the ``repro`` package.

All errors raised by this library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class TopologyError(ReproError):
    """Raised when a topology is malformed or a query is invalid.

    Examples: asking for the neighbours of a node that does not exist,
    constructing a grid with non-positive dimensions, or designating a
    source node that is not part of the graph.
    """


class ScheduleError(ReproError):
    """Raised when a slot assignment is structurally invalid.

    This covers queries against nodes without slots, slot values outside
    the frame, and attempts to build sender sets from partial schedules.
    """


class SimulationError(ReproError):
    """Raised when the discrete event simulator is misused.

    Examples: scheduling an event in the past, running a simulator that
    has already been shut down, or registering two processes under the
    same identifier.
    """


class ProtocolError(ReproError):
    """Raised when a distributed protocol reaches an unrecoverable state.

    Examples: Phase 1 failing to assign a slot to every node within the
    configured number of setup periods, or Phase 3 being started from a
    node that was never selected by the Phase 2 node locator.
    """


class VerificationError(ReproError):
    """Raised when ``VerifySchedule`` is invoked with inconsistent inputs.

    Examples: verifying a schedule against a topology it does not cover,
    or supplying a non-positive safety period.
    """


class ConfigurationError(ReproError):
    """Raised when experiment parameters are inconsistent.

    Examples: a search distance larger than the network diameter, or a
    negative number of repeats.
    """


class SweepExecutionError(ReproError):
    """Raised when a seed sweep cannot produce any usable results.

    Supervised execution quarantines individual failing seeds and
    completes the sweep with the survivors; this error is the
    fail-loudly end of that spectrum — *no* seed survived (every shard
    crashed, hung past its timeout, or raised on every attempt).  The
    offending seeds and the attempt count are carried as structured
    attributes so tooling can report them without parsing the message.
    """

    def __init__(self, message: str, seeds=(), attempts: int = 0) -> None:
        super().__init__(message)
        self.seeds = tuple(seeds)
        self.attempts = attempts


class StorageError(ReproError):
    """Raised when a durable write (or a storage audit) fails.

    The crash-consistent IO layer (:mod:`repro.storage`) wraps every
    ``OSError`` from its atomic-write/durable-append paths in this
    type, so callers can distinguish "the disk failed us" (ENOSPC,
    read-only filesystem, permission flip, torn artefact) from a seed
    sweep failing on its own merits.  The CLI maps it to its own exit
    code (distinct from sweep failure and quarantine) and the service
    answers 503 while degraded.

    ``os_errno`` and ``path`` are best-effort diagnostics (they may be
    lost when the error crosses a process boundary via pickling; the
    message always survives).
    """

    def __init__(self, message: str, os_errno: int = 0, path: str = "") -> None:
        super().__init__(message)
        self.os_errno = os_errno
        self.path = path


class ServiceError(ReproError):
    """A failed request to the sweep service or a pool's shard board.

    ``status`` is the HTTP status code when the server answered (the
    request *arrived*; asking again would not change the answer) and
    ``0`` when nothing came back (connection refused or reset, a
    timeout, an injected drop or partition, a closed pipe): the only
    kind a client retries.
    """

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


#: CLI exit code when a sweep could not produce any results at all
#: (:class:`SweepExecutionError`).
EXIT_SWEEP_FAILED = 3
#: CLI exit code when a sweep completed but supervised execution had to
#: quarantine seeds — the report is usable but incomplete.
EXIT_QUARANTINED = 4
#: CLI exit code when the *disk* failed us — a durable write raised
#: :class:`StorageError` (ENOSPC, EROFS, …).  Distinct from the
#: sweep-level codes so scripts can tell "the numbers are suspect" apart
#: from "the machine needs an operator".
EXIT_STORAGE = 5


def storage_failure(op: str, path, exc: OSError) -> StorageError:
    """Build a :class:`StorageError` in the library's uniform shape,
    naming the operation, the artefact, and the underlying OS error::

        raise storage_failure("atomic_write", path, exc) from exc
    """
    detail = exc.strerror or exc.__class__.__name__
    return StorageError(
        f"storage {op} failed for {path}: {detail}",
        os_errno=exc.errno or 0,
        path=str(path),
    )


def sweep_failed(
    owner: str, seeds, attempts: int, detail: str
) -> SweepExecutionError:
    """Build a :class:`SweepExecutionError` in the library's uniform
    shape, naming the seeds that never completed and how hard the
    supervisor tried::

        raise sweep_failed("ExperimentRunner", [3, 4], 3,
                           "InjectedFault: poison")
    """
    listed = ", ".join(map(str, seeds))
    return SweepExecutionError(
        f"{owner}: sweep failed — seeds [{listed}] unrecovered after "
        f"{attempts} attempt(s): {detail}",
        seeds=seeds,
        attempts=attempts,
    )


def invalid_field(
    owner: str, field: str, value: object, problem: str
) -> ConfigurationError:
    """Build a :class:`ConfigurationError` in the library's uniform shape.

    Every validation failure of a configuration object reads the same
    way — ``Owner.field=value: what is wrong`` — so users can always see
    *which* parameter of *which* object they got wrong, not just a prose
    description of the constraint::

        raise invalid_field("ExperimentConfig", "repeats", 0,
                            "an experiment needs at least one repeat")
    """
    return ConfigurationError(f"{owner}.{field}={value!r}: {problem}")
