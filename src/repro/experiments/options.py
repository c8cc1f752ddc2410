"""Option vocabularies shared by the CLI parser, the scripts and
:class:`~repro.experiments.ExperimentConfig` validation.

Each is defined here once, in a module that imports nothing but ``os``,
so building the parser or validating a config loads neither the worker
pool, the supervision machinery nor the chaos harness.
"""

from __future__ import annotations

import os

#: Environment variable carrying the active fault plan (JSON) to
#: workers (see :mod:`repro.experiments.faults`).  Read here so the run
#: path can skip importing the chaos harness when no plan is set.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: Divergence-guard modes accepted by ``run_resilient``/the CLI.
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
