"""Core formal objects of the paper.

* :class:`Schedule` — TDMA slot assignments / sender-set sequences.
* Definition 1–3 checkers — non-colliding slots, strong and weak DAS.
* Definition 4 / Eq. 1 — capture time, safety periods and the
  simulation time bound of §VI-B.
"""

from .. import _lazy_exports

#: Submodule -> the public names it defines, each imported on first
#: access.
_EXPORTS = {
    "das_properties": (
        "COLLISION",
        "MISSING_SLOT",
        "ORDERING",
        "UNKNOWN_NODE",
        "DasCheckResult",
        "DasViolation",
        "check_strong_das",
        "check_weak_das",
        "first_violation",
        "is_non_colliding",
        "is_strong_das",
        "is_weak_das",
    ),
    "safety": (
        "PAPER_SAFETY_FACTOR",
        "PAPER_TIME_BOUND_FACTOR",
        "SafetyPeriod",
        "capture_time_periods",
        "capture_time_seconds",
        "safety_period",
        "simulation_time_bound",
    ),
    "schedule": (
        "Schedule",
    ),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
