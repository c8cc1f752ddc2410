"""Application layer: the convergecast data plane, the operational run
harness that pits it against the eavesdropper, and the workload
dynamics (multi/mobile sources, perturbations) scenarios drive."""

from .convergecast import ConvergecastNodeProcess
from .dynamics import (
    DutyCycle,
    NodeDeath,
    NodeSleep,
    Perturbation,
    PerturbationStep,
    SourcePlan,
    SourceTracker,
    lower_perturbations,
)
from .fast_kernel import (
    build_slot_timeline,
    compile_fast_lane,
    fast_kernel_supported,
    fast_lane_compilable,
    run_fast_kernel,
)
from .messages import AggregateMessage
from .runtime import (
    DEFAULT_KERNEL,
    FAST_KERNEL,
    KERNELS,
    LEGACY_KERNEL,
    OPERATIONAL_TRACE_KINDS,
    OperationalResult,
    run_operational_phase,
)

__all__ = [
    "AggregateMessage",
    "ConvergecastNodeProcess",
    "DEFAULT_KERNEL",
    "DutyCycle",
    "FAST_KERNEL",
    "KERNELS",
    "LEGACY_KERNEL",
    "NodeDeath",
    "NodeSleep",
    "OPERATIONAL_TRACE_KINDS",
    "OperationalResult",
    "Perturbation",
    "PerturbationStep",
    "SourcePlan",
    "SourceTracker",
    "build_slot_timeline",
    "compile_fast_lane",
    "fast_kernel_supported",
    "fast_lane_compilable",
    "lower_perturbations",
    "run_fast_kernel",
    "run_operational_phase",
]
