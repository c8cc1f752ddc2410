"""The supervised seed pool: pooled sweeps on the shard board.

Every sweep the library runs is a set of independent seeds: run *i*
depends only on its seed.  :meth:`SeedPool.map_seeds` opens a sweep's
seeds as contiguous shards on an in-process
:class:`~repro.service.transport.ShardBoard` and then forks its pull
workers, so each worker inherits the per-seed function, the topology
and the schedule cache instead of unpickling them.  The workers run the
one :class:`~repro.service.pull.PullWorker` loop a service's workers
run, over a pipe (:class:`~repro.service.pull.PipeTransport`) that the
pool serves with the service's own lease dispatch, and the
:class:`~repro.service.fleet.WorkerFleet` that supervises a service's
local workers supervises them.  Results come back keyed by seed, so a
pooled sweep is bit-identical to a serial one; shard boundaries cannot
affect results because every run re-seeds from scratch.

Supervision is the board's: a shard whose run raised walks the
:class:`~repro.experiments.resilience.Ladder` (retry with backoff,
bisection, quarantine of the poison seed), a worker that died is
charged ``crash`` on its own leases and respawned, and with a
``chunk_timeout`` a lease that lands no seed in time has its worker
killed and charged ``timeout``.  A sweep in which nothing fails is
byte-identical to unsupervised execution.

The pool knows nothing of the operational phase.  The message-overhead
experiment uses it directly and so imports only the setup stack; an
:class:`~repro.experiments.ExperimentRunner` given one runs its
operational sweeps on it.
"""

from __future__ import annotations

import threading
import time
from multiprocessing import Pipe
from multiprocessing.connection import wait
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError, invalid_field
from .options import default_workers
from .resilience import FailedRun, RetryPolicy

#: The board job id of a pool's sweep (a pool's board holds one job).
_SWEEP = "sweep"

#: How long an idle pool worker waits between claims: the pool answers
#: every request from one thread, so a claim is never held.
_POLL = 0.01

#: The longest the pool waits for a request before its supervision tick.
_TICK = 0.05

#: How long finished workers get to hand in their last report.
_DRAIN = 5.0


def seed_chunks(seeds: Sequence[int], tasks: int) -> List[Tuple[int, ...]]:
    """Split ``seeds`` into at most ``tasks`` contiguous, ordered chunks.

    Contiguity means a flattened, submission-ordered gather reproduces
    the original seed order with no re-sorting step.
    """
    if tasks < 1:
        raise ConfigurationError("seed_chunks needs at least one task")
    n = len(seeds)
    tasks = min(tasks, n) if n else 0
    chunks: List[Tuple[int, ...]] = []
    start = 0
    for i in range(tasks):
        # Balanced partition: the first n % tasks chunks get one extra.
        size = n // tasks + (1 if i < n % tasks else 0)
        chunks.append(tuple(seeds[start : start + size]))
        start += size
    return chunks


class SeedPool:
    """A supervised worker pool for seed sweeps.

    Parameters
    ----------
    workers:
        Process count; ``None`` or ``0`` means one per CPU (the CLI
        convention).
    chunks_per_worker:
        Load-balancing granularity: each :meth:`map_seeds` call splits
        its seeds into up to ``workers × chunks_per_worker`` shards.
    retry_policy:
        Backoff schedule for supervised retries of failed shards
        (default: three attempts, 50 ms base delay).  See
        :class:`~repro.experiments.RetryPolicy`.
    chunk_timeout:
        The lease timeout: seconds a worker may hold a shard without
        landing a seed before it is presumed hung, killed and replaced
        (``None``, the default, disables it — a crash still recovers, a
        genuine hang does not).

    Each :meth:`map_seeds` call forks its workers and reaps them before
    it returns, so a pool holds no process between calls.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        chunks_per_worker: int = 4,
        retry_policy: Optional[RetryPolicy] = None,
        chunk_timeout: Optional[float] = None,
    ) -> None:
        owner = type(self).__name__
        resolved = default_workers() if not workers else workers
        if resolved < 1:
            raise invalid_field(
                owner, "workers", workers,
                "a pool needs at least one worker",
            )
        if chunks_per_worker < 1:
            raise invalid_field(
                owner, "chunks_per_worker", chunks_per_worker,
                "chunks_per_worker must be at least one",
            )
        if chunk_timeout is not None and chunk_timeout <= 0:
            raise invalid_field(
                owner, "chunk_timeout", chunk_timeout,
                "a timeout must be positive (None disables it)",
            )
        self._workers = resolved
        self._chunks_per_worker = chunks_per_worker
        self._retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self._chunk_timeout = chunk_timeout

    @property
    def workers(self) -> int:
        """The process count seed sweeps fan out over."""
        return self._workers

    def map_seeds(
        self,
        run_seed: Callable[[int], object],
        seeds: Sequence[int],
        telemetry: bool,
        on_result: Optional[Callable[[int, object], None]] = None,
    ) -> Tuple[Dict[int, object], Tuple[FailedRun, ...]]:
        """Run ``run_seed`` over ``seeds`` on forked pull workers.

        ``on_result`` fires in this process after each seed lands;
        ``telemetry`` has workers ship their spans and metrics back.
        Returns results keyed by seed, so the reassembled sweep is
        bit-identical to a serial one whenever nothing fails, plus the
        quarantine records, seed-ordered.  Every worker is reaped before
        this returns or raises (``KeyboardInterrupt`` included).
        """
        from ..service.fleet import WorkerFleet
        from ..service.pull import PipeTransport, PullWorker
        from ..service.transport import ShardBoard

        shards = seed_chunks(list(seeds), self._workers * self._chunks_per_worker)
        results: Dict[int, object] = {}
        # The board's sink: results wait here for this thread, so an
        # ``on_result`` error ends the sweep instead of failing a request.
        landed: List[Tuple[int, object]] = []
        board = ShardBoard(namespace="supervisor", unit="chunk")
        board.publish(
            _SWEEP,
            self._retry_policy,
            shards,
            set(),
            lambda seed, result: landed.append((seed, result)),
        )
        # worker id -> (the pool's end, the worker's end) of its pipe.
        pipes: Dict[str, tuple] = {}

        def prepare(worker_id: str) -> Callable[[], PullWorker]:
            ours, theirs = Pipe()
            pipes[worker_id] = (ours, theirs)
            return lambda: PullWorker(
                PipeTransport(theirs),
                worker_id,
                poll_interval=_POLL,
                hold=0.0,
                run_seed=run_seed,
                telemetry=telemetry,
            )

        def forked(worker_ids: List[str]) -> None:
            # Only the worker holds its end now: its exit reads as EOF.
            for worker_id in worker_ids:
                pipes[worker_id][1].close()

        fleet = WorkerFleet(board, prepare, self._chunk_timeout, "supervisor")
        serving = _PipeServer(board, pipes)
        try:
            forked([fleet.spawn() for _ in range(min(self._workers, len(shards)))])
            while not board.job_finished(_SWEEP):
                serving.round(_TICK)
                for seed, result in landed:
                    results[seed] = result
                    if on_result is not None:
                        on_result(seed, result)
                landed.clear()
                halt = board.halt_of(_SWEEP)
                if halt is not None:
                    raise halt  # the chaos harness's kill -9 stand-in
                forked(fleet.supervise())
            # Let the workers hand in their last requests (a drained
            # shard's telemetry rides on its ``release``) and exit.
            fleet.terminate()
            deadline = time.monotonic() + _DRAIN
            while serving.open and time.monotonic() < deadline:
                serving.round(_TICK)
            return results, tuple(board.take_failures(_SWEEP))
        finally:
            fleet.stop(timeout=0)
            for ours, theirs in pipes.values():
                ours.close()
                theirs.close()


class _PipeServer:
    """The pool's side of its workers' pipes: each request answered
    with the lease dispatch the service's HTTP front uses."""

    def __init__(self, board, pipes: Dict[str, tuple]) -> None:
        self._board = board
        self._pipes = pipes
        self._closed: set = set()
        # Claims are answered at once (max_hold=0), so never held.
        self._stop = threading.Event()

    @property
    def open(self) -> bool:
        """Whether any worker's end of its pipe is still open."""
        return any(ours not in self._closed for ours, _ in self._pipes.values())

    def round(self, timeout: float) -> None:
        """Answer every request that arrives within ``timeout``."""
        live = [ours for ours, _ in self._pipes.values() if ours not in self._closed]
        for connection in wait(live, timeout):
            if not self._answer(connection):
                self._closed.add(connection)

    def _answer(self, connection) -> bool:
        """One request and its reply; ``False`` once the worker is gone."""
        from ..service.transport import claim_shard, shard_post

        try:
            path, payload = connection.recv()
        except (EOFError, OSError):
            return False
        telemetry = payload.pop("telemetry", None)
        if telemetry is not None:
            from ..telemetry import absorb_worker_payload

            absorb_worker_payload(telemetry)
        parts = [part for part in path.split("/") if part]
        if parts == ["shards", "claim"]:
            reply = claim_shard(self._board, payload, self._stop, max_hold=0.0)
        else:
            reply = shard_post(self._board, parts[1], parts[2], payload)
        try:
            connection.send(reply)
        except OSError:
            return False
        return True
