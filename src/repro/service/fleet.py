"""Forked local pull workers: started, watched, killed and respawned.

A :class:`WorkerFleet` is the process side of a
:class:`~repro.service.transport.ShardBoard`'s local workers, shared by
the two owners that fork them: a local-mode
:class:`~repro.service.api.SweepService` (workers that post over HTTP)
and a pooled sweep's :class:`~repro.experiments.pool.SeedPool` (workers
that post over a pipe).  The owner says how to build each worker; the
fleet forks it and applies one set of blame rules on every
:meth:`~WorkerFleet.supervise` tick:

* a worker that died is charged a ``crash`` attempt on the leases it
  held, and only those;
* a worker holding a lease that landed no seed within the lease timeout
  is killed and charged ``timeout`` (no timeout, no watchdog);
* either is replaced by a fresh worker under a fresh id, so a stale
  upload from the dead one can never renew the new one's lease.

A forked worker runs the :class:`~repro.service.pull.PullWorker` loop
until SIGTERM or SIGINT asks it to drain, and exits on its own once the
process that forked it is gone.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import threading
import time
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from ..telemetry import default_registry
from .pull import PullWorker, worker_main

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .transport import ShardBoard

#: ``prepare(worker_id)``, called in the owner before each fork; returns
#: the function the child calls to build its worker.
Prepare = Callable[[str], Callable[[], PullWorker]]


class WorkerFleet:
    """The forked local workers of one board.

    ``lease_timeout`` is the wedged-worker watchdog (``None`` disables
    it); respawns are counted as ``<namespace>.respawns``.
    """

    def __init__(
        self,
        board: "ShardBoard",
        prepare: Prepare,
        lease_timeout: Optional[float] = None,
        namespace: str = "service",
    ) -> None:
        self._board = board
        self._prepare = prepare
        self._lease_timeout = lease_timeout
        self._namespace = namespace
        self._processes: Dict[str, multiprocessing.process.BaseProcess] = {}
        self._spawned = 0

    def __len__(self) -> int:
        return len(self._processes)

    def __contains__(self, worker_id: object) -> bool:
        return worker_id in self._processes

    def spawn(self) -> str:
        """Fork one worker; returns its id."""
        self._spawned += 1
        worker_id = f"local-{self._spawned}"
        make_worker = self._prepare(worker_id)
        process = multiprocessing.get_context("fork").Process(
            target=_run_worker,
            args=(make_worker, os.getpid()),
            name=f"sweep-{worker_id}",
            daemon=True,
        )
        # The child must never finalize objects inherited from a
        # threaded parent: a finalizer taking a lock that another thread
        # held at the fork would wait forever.  Frozen objects sit in
        # the permanent generation, which the child's collector skips;
        # a caller's own freeze is kept (unfreeze empties it all).
        frozen = gc.get_freeze_count()
        gc.freeze()
        try:
            process.start()
        finally:
            if not frozen:
                gc.unfreeze()
        self._processes[worker_id] = process
        return worker_id

    def supervise(self, now: Optional[float] = None) -> List[str]:
        """One tick of the blame rules (see the module docstring);
        returns the ids of the workers spawned as replacements."""
        if not self._processes:
            return []
        stale = (
            self._board.stale_workers(self._lease_timeout, now)
            if self._lease_timeout is not None
            else set()
        )
        spawned = []
        for worker_id, process in list(self._processes.items()):
            if not process.is_alive():
                kind = "crash"
                error = (
                    f"WorkerDied: local worker {worker_id} exited "
                    f"with code {process.exitcode}"
                )
            elif worker_id in stale:
                process.kill()
                kind = "timeout"
                error = f"TimeoutError: no seed landed in {self._lease_timeout}s"
            else:
                continue
            process.join()
            del self._processes[worker_id]
            self._board.fail_worker(worker_id, kind, error)
            default_registry().inc(f"{self._namespace}.respawns")
            spawned.append(self.spawn())
        return spawned

    def terminate(self) -> None:
        """SIGTERM every worker: each finishes and uploads its seed in
        flight, hands the rest of its lease back, and exits."""
        for process in self._processes.values():
            process.terminate()

    def stop(self, timeout: float = 5.0) -> None:
        """:meth:`terminate`, then reap; workers still alive after
        ``timeout`` seconds are killed (``0`` kills at once)."""
        processes = list(self._processes.values())
        self._processes.clear()
        for process in processes:
            if timeout > 0:
                process.terminate()
            else:
                process.kill()
        deadline = time.monotonic() + timeout
        for process in processes:
            process.join(max(0.0, deadline - time.monotonic()))
            if process.is_alive():
                process.kill()
                process.join()


def _run_worker(make_worker: Callable[[], PullWorker], parent: int) -> None:
    """A forked worker's process body.  It drains like ``repro worker
    start`` (the inherited signal handlers would only set the dead copy
    of the parent's stop event), and exits once orphaned."""
    threading.Thread(target=_exit_when_orphaned, args=(parent,), daemon=True).start()
    worker_main(make_worker())


def _exit_when_orphaned(parent: int) -> None:
    """A local worker's watchdog: once the process that forked it is
    gone (``kill -9`` included), nobody can take its uploads — exit."""
    while os.getppid() == parent:
        time.sleep(0.25)
    os._exit(0)
