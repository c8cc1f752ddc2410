"""Algorithm 1 — the ``VerifySchedule`` decision procedure and the
attacker trace generator it is defined over."""

from .. import _lazy_exports

#: Submodule -> the public names it defines, each imported on first
#: access.
_EXPORTS = {
    "traces": (
        "AttackerStep",
        "audible_senders",
        "generate_attacker_traces",
        "lowest_slot_neighbours",
        "valid_steps",
    ),
    "verify": (
        "VerificationResult",
        "is_slp_aware_das",
        "minimum_capture_period",
        "verify_schedule",
    ),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
