"""The paper's evaluation, reproducible: Table I parameters, the
repeated-run experiment engine, Figure 5 and the overhead claim.

Names resolve lazily (PEP 562), as in the package root: a cold
``scenario run`` loads the engine it uses, not the worker pool, the
Figure 5 and overhead drivers or the SQLite schedule store.
"""

from .. import _lazy_exports

#: Submodule -> the public names it defines, each imported on first
#: access.
_EXPORTS = {
    "config": (
        "PAPER",
        "PAPER_SIZES",
        "PaperParameters",
        "format_table1",
    ),
    "figure5": (
        "Figure5Cell",
        "Figure5Result",
        "PAPER_FIGURE5_REFERENCE",
        "format_figure5",
        "headline_reduction",
        "run_figure5",
    ),
    "overhead": (
        "OverheadMeasurement",
        "format_overhead",
        "measure_setup_overhead",
    ),
    "faults": (
        "FaultPlan",
        "InjectedFault",
        "ServiceHalt",
        "active_fault_plan",
    ),
    "options": (
        "FAULT_PLAN_ENV",
        "GUARD_DIFFERENTIAL",
        "GUARD_MODES",
        "MIN_NODE_RUNS_FOR_POOL",
        "default_workers",
        "plan_workers",
        "workers_argument",
    ),
    "parallel": (
        "ParallelExperimentRunner",
    ),
    "pool": (
        "SeedPool",
        "seed_chunks",
    ),
    "resilience": (
        "FailedRun",
        "GuardReport",
        "Ladder",
        "RetryPolicy",
        "SweepCheckpoint",
        "WorkerSupervisor",
        "apply_divergence_guard",
        "decode_checkpoint_line",
        "encode_checkpoint_line",
        "guard_sample",
        "result_from_dict",
        "result_to_dict",
        "write_reproducer_bundle",
    ),
    "runner": (
        "ALGORITHMS",
        "PROTECTIONLESS",
        "SLP",
        "ExperimentConfig",
        "ExperimentOutcome",
        "ExperimentRunner",
    ),
    "schedule_cache": (
        "ScheduleCache",
        "configure_schedule_cache",
        "default_cache_stats",
        "default_schedule_cache",
        "reset_default_cache",
        "schedule_cache_enabled",
        "schedule_key",
        "topology_fingerprint",
    ),
    "schedule_store": (
        "ScheduleStore",
        "store_key",
    ),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
