"""Option vocabularies shared by the CLI parser, the scripts and
:class:`~repro.experiments.ExperimentConfig` validation, and the worker
policy that resolves a ``--workers`` request.

Each is defined here once, in a module that imports nothing but ``os``,
so building the parser, validating a config or deciding that a sweep
runs serially loads neither the worker pool, the supervision machinery
nor the chaos harness.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..topology import Topology
    from .pool import SeedPool

#: Environment variable carrying the active fault plan (JSON) to
#: workers (see :mod:`repro.experiments.faults`).  Read here so the run
#: path can skip importing the chaos harness when no plan is set.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"


def fault_plan():
    """The active :class:`~repro.experiments.faults.FaultPlan`, or
    ``None``; imports the chaos harness only when a plan is set."""
    if FAULT_PLAN_ENV not in os.environ:
        return None
    from .faults import active_fault_plan

    return active_fault_plan()


#: Divergence-guard modes accepted by ``ExperimentRunner.run``/the CLI.
GUARD_DIFFERENTIAL = "differential"
GUARD_MODES = (GUARD_DIFFERENTIAL,)


def default_workers() -> int:
    """The worker count used when none is given: one per CPU.

    Robust to platforms where ``os.cpu_count()`` answers ``None``
    (POSIX permits it): the fallback is one worker, never a crash or a
    zero-sized pool.
    """
    count = os.cpu_count()
    return max(count, 1) if count else 1


def workers_argument(value: str) -> int:
    """argparse converter for ``--workers`` flags, shared by the CLI and
    the scripts: a positive process count, or ``0`` for one per CPU."""
    import argparse

    try:
        workers = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}")
    if workers < 0:
        raise argparse.ArgumentTypeError("--workers must be >= 0")
    return default_workers() if workers == 0 else workers


#: Dispatch threshold for :func:`plan_workers`: a sweep whose total work
#: (``repeats × nodes``) falls below this is cheaper to run serially
#: than to pickle, ship and gather across a pool.  The 4-seed scenario
#: sweeps (4 × 121 node-runs) sit below it, 20-30-seed sweeps of the
#: paper grids (20 × 121 and up) above.
MIN_NODE_RUNS_FOR_POOL = 1000


def plan_workers(
    workers: Optional[int],
    repeats: Optional[int] = None,
    topology: Optional["Topology"] = None,
) -> int:
    """Resolve a requested worker count into an *effective* one.

    Two situations make a process pool a net loss (a 20-seed
    ``churn-10pct`` sweep once ran at 0.57× the serial speed with 4
    workers on a 1-core host):

    * more workers than usable cores — the pool adds pickling and
      scheduling overhead while the extra processes just time-slice one
      another; the count is capped at :func:`default_workers`;
    * a sweep too small to amortise dispatch — when
      ``repeats × topology nodes`` falls under
      :data:`MIN_NODE_RUNS_FOR_POOL`, the whole sweep runs serially.

    Returns the worker count to actually use (``1`` = serial).
    ``None`` stays serial, ``0`` means one per CPU, as everywhere else.
    """
    resolved = default_workers() if workers == 0 else workers
    if resolved is None or resolved <= 1:
        return 1
    effective = min(resolved, default_workers())
    if effective <= 1:
        return 1
    if (
        repeats is not None
        and topology is not None
        and repeats * topology.num_nodes < MIN_NODE_RUNS_FOR_POOL
    ):
        return 1
    return effective


def plan_pool(
    workers: Optional[int],
    repeats: int,
    topology: "Topology",
    chunk_timeout: Optional[float] = None,
) -> Optional["SeedPool"]:
    """The :class:`~repro.experiments.pool.SeedPool` an operational
    sweep of ``repeats`` seeds over ``topology`` runs on, or ``None``
    when :func:`plan_workers` gives it one worker (the pool code is
    imported only when a pool is built)."""
    effective = plan_workers(workers, repeats, topology)
    if effective == 1:
        return None
    from .pool import SeedPool

    return SeedPool(effective, chunk_timeout=chunk_timeout)
