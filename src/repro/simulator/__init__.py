"""Discrete event simulation substrate (the TOSSIM replacement).

Provides the event engine, per-node protocol processes with FIFO
channels and timers (matching the paper's guarded-command model), the
shared radio medium with pluggable noise models, and structured run
tracing from which all metrics are computed.
"""

from .. import _lazy_exports

#: Submodule -> the public names it defines, each imported on first
#: access.
_EXPORTS = {
    "channel": (
        "Channel",
        "Delivery",
    ),
    "event": (
        "Event",
        "EventHandle",
    ),
    "event_queue": (
        "EventQueue",
    ),
    "noise": (
        "BernoulliNoise",
        "CasinoLabNoise",
        "IdealNoise",
        "NoiseModel",
    ),
    "process": (
        "Process",
    ),
    "radio": (
        "Eavesdropper",
        "RadioMedium",
    ),
    "simulator": (
        "Simulator",
    ),
    "trace": (
        "ATTACKER_HEAR",
        "ATTACKER_MOVE",
        "CAPTURE",
        "COLLIDE",
        "COUNTS_ONLY",
        "DELIVER",
        "DROP",
        "PERIOD_START",
        "PHASE",
        "SEND",
        "SLOT_ASSIGNED",
        "SLOT_CHANGED",
        "TraceRecord",
        "TraceRecorder",
    ),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
