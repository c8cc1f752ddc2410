"""The supervised seed pool: the library's one process-pool owner.

Every sweep the library runs is a set of independent seeds: run *i*
depends only on its seed.  :class:`SeedPool` fans any picklable
per-seed function out over a
:class:`~concurrent.futures.ProcessPoolExecutor` and reassembles the
results keyed by seed, so a pooled sweep is bit-identical to a serial
one.  Seeds are dispatched in contiguous chunks (several runs per task)
to amortise pickling and scheduling overhead; chunk boundaries cannot
affect results because every run re-seeds from scratch.

Execution is *supervised* (see :mod:`repro.experiments.resilience`):
each chunk is an individually watched future with optional timeout,
retries with deterministic backoff, pool respawn after worker death,
and poison-seed isolation via chunk splitting — a failing worker
quarantines at most its own seeds instead of aborting the sweep, and a
sweep in which nothing fails is byte-identical to unsupervised
execution.

The pool knows nothing of the operational phase.  The message-overhead
experiment uses it directly and so imports only the setup stack;
:class:`~repro.experiments.ParallelExperimentRunner` builds on it for
operational sweeps.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError, invalid_field
from ..telemetry import (
    MetricsRegistry,
    SpanTracer,
    active_tracer,
    tracing,
    use_registry,
)
from .faults import active_fault_plan
from .options import default_workers
from .resilience import FailedRun, RetryPolicy, WorkerSupervisor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import ProcessPoolExecutor


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


class ChunkResults(list):
    """One chunk's result list plus an optional telemetry payload.

    A ``list`` subclass, so the supervisor's seed↔result zip and every
    other consumer handle it exactly like the bare list workers used
    to return; the payload (worker spans + metrics snapshot, see
    :meth:`SpanTracer.export_payload`) rides back on the same future
    and is only ever looked for via ``getattr``.
    """

    telemetry: Optional[dict] = None


def _run_seed_chunk(
    run_seed: Callable[[int], object], seeds: Tuple[int, ...], telemetry: bool
) -> list:
    """Worker entry point: ``run_seed`` over one contiguous chunk of seeds.

    ``run_seed`` is any picklable per-seed function; the chaos fault
    point fires before each seed.  Module-level so it pickles by
    reference under every start method.

    With ``telemetry`` set the chunk instruments itself — a private
    tracer and registry for exactly this chunk's work — and ships both
    back with the results as a :class:`ChunkResults` payload, which the
    supervisor absorbs onto the parent's timeline as a separate worker
    track.
    """
    # An active tracer owned by *this* process means the chunk is
    # running inline under the parent session — its spans land on the
    # parent track directly.  A tracer with a foreign pid is an
    # artefact of fork-start pools (the child inherits the parent's
    # module globals); the worker must still instrument itself.
    parent_tracer = active_tracer()
    if not telemetry or (
        parent_tracer is not None and parent_tracer.pid == os.getpid()
    ):
        return _run_chunk_seeds(run_seed, seeds)
    tracer = SpanTracer()
    registry = MetricsRegistry()
    with use_registry(registry), tracing(tracer):
        with tracer.span("chunk.run", seeds=list(seeds)):
            results = _run_chunk_seeds(run_seed, seeds)
    payload = tracer.export_payload()
    payload["metrics"] = registry.snapshot()
    wrapped = ChunkResults(results)
    wrapped.telemetry = payload
    return wrapped


def _run_chunk_seeds(
    run_seed: Callable[[int], object], seeds: Tuple[int, ...]
) -> list:
    plan = active_fault_plan()
    results = []
    for seed in seeds:
        if plan is not None:
            # Chaos-only fault point (crash/hang/transient/poison).
            plan.before_seed(seed)
        results.append(run_seed(seed))
    return results


class SeedPool:
    """A lazily started, supervised worker pool for seed sweeps.

    Parameters
    ----------
    workers:
        Process count; ``None`` or ``0`` means one per CPU (the CLI
        convention).
    chunks_per_worker:
        Load-balancing granularity: each :meth:`map_seeds` call splits
        its seeds into up to ``workers × chunks_per_worker`` tasks.
    retry_policy:
        Backoff schedule for supervised retries of failed or hung
        chunks (default: three attempts, 50 ms base delay).  See
        :class:`~repro.experiments.resilience.RetryPolicy`.
    chunk_timeout:
        Seconds a chunk future may run before the pool is presumed
        hung, killed and respawned (``None``, the default, disables the
        timeout — a crash still recovers, a genuine hang does not).

    The pool is created lazily on first use and reused across calls
    (pool start-up would otherwise dominate short sweeps) — close it
    with :meth:`close` or use the pool as a context manager.
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
        self._executor: Optional["ProcessPoolExecutor"] = None
        self._retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self._chunk_timeout = chunk_timeout

    @property
    def workers(self) -> int:
        """The process count seed sweeps fan out over."""
        return self._workers

    def _ensure_executor(self) -> "ProcessPoolExecutor":
        if self._executor is None:
            from concurrent.futures import ProcessPoolExecutor

            self._executor = ProcessPoolExecutor(max_workers=self._workers)
        return self._executor

    @staticmethod
    def _terminate_processes(executor: "ProcessPoolExecutor") -> None:
        """Forcibly end a pool's worker processes (the only way to
        reclaim a hung worker; ``shutdown`` alone would wait forever)."""
        processes = getattr(executor, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except (OSError, ValueError):  # already gone
                pass

    def close(self, kill: bool = False) -> None:
        """Shut the worker pool down; the next submit spawns a fresh one
        (this is also the supervisor's ``respawn`` hook).  Idempotent.
        ``kill=True`` cancels pending futures, terminates the worker
        processes and does not wait — the only way to reclaim a hung
        worker, and the interrupt path, which must never orphan workers
        behind a blocking shutdown."""
        executor = self._executor
        self._executor = None
        if executor is not None:
            if kill:
                self._terminate_processes(executor)
            executor.shutdown(wait=not kill, cancel_futures=True)

    def __enter__(self) -> "SeedPool":
        return self

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        # On KeyboardInterrupt (or interpreter teardown via SystemExit)
        # a graceful shutdown would block on in-flight chunks and leave
        # workers orphaned if the user interrupts again; kill instead.
        interrupted = isinstance(exc_type, type) and issubclass(
            exc_type, (KeyboardInterrupt, SystemExit)
        )
        self.close(kill=interrupted)

    def map_seeds(
        self,
        task_for: Callable[[Tuple[int, ...]], Callable[[int], object]],
        seeds: Sequence[int],
        telemetry: bool,
        on_result=None,
    ) -> Tuple[Dict[int, object], Tuple[FailedRun, ...]]:
        """Run ``seeds`` on the pool in chunks; a worker runs the
        picklable per-seed function ``task_for(chunk)`` over its chunk.

        Chunks run as individually supervised futures (fault points,
        timeout, retry with backoff, pool respawn, poison-seed
        isolation — see
        :class:`~repro.experiments.resilience.WorkerSupervisor`);
        ``telemetry`` has workers ship their spans and metrics back.
        Returns results keyed by seed, so the reassembled sweep is
        bit-identical to a serial one whenever nothing fails, plus the
        quarantine records.
        """
        chunks = seed_chunks(list(seeds), self._workers * self._chunks_per_worker)
        supervisor = WorkerSupervisor(
            submit=lambda chunk: self._ensure_executor().submit(
                _run_seed_chunk, task_for(chunk), chunk, telemetry
            ),
            respawn=self.close,
            retry=self._retry_policy,
            chunk_timeout=self._chunk_timeout,
            on_result=on_result,
        )
        try:
            return supervisor.execute(chunks)
        except BaseException:
            # KeyboardInterrupt (or any other escape) mid-sweep: tear
            # the pool down hard rather than leave workers running a
            # sweep nobody will collect.
            self.close(kill=True)
            raise
