"""Application layer: the convergecast data plane, the operational run
harness that pits it against the eavesdropper, and the workload
dynamics (multi/mobile sources, perturbations) scenarios drive."""

from .. import _lazy_exports

#: Submodule -> the public names it defines, each imported on first
#: access.
_EXPORTS = {
    "convergecast": (
        "ConvergecastNodeProcess",
    ),
    "dynamics": (
        "SourcePlan",
        "SourceTracker",
    ),
    "fast_kernel": (
        "build_slot_timeline",
        "fast_kernel_supported",
        "fast_lane_compilable",
        "run_fast_kernel",
    ),
    "messages": (
        "AggregateMessage",
    ),
    "perturbations": (
        "DutyCycle",
        "NodeDeath",
        "NodeSleep",
        "Perturbation",
        "PerturbationStep",
        "lower_perturbations",
    ),
    "runtime": (
        "DEFAULT_KERNEL",
        "FAST_KERNEL",
        "KERNELS",
        "LEGACY_KERNEL",
        "OPERATIONAL_TRACE_KINDS",
        "OperationalResult",
        "run_operational_phase",
    ),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
