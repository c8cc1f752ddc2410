"""The distributed eavesdropping attacker (Figure 1 of the paper)."""

from .. import _lazy_exports

#: Submodule -> the public names it defines, each imported on first
#: access.
_EXPORTS = {
    "decision": (
        "AvoidRecentlyVisited",
        "DecisionFunction",
        "FollowAnyHeard",
        "FollowFirstHeard",
        "HeardMessage",
    ),
    "eavesdropper": (
        "EavesdropperAgent",
    ),
    "model": (
        "AttackerSpec",
        "AttackerState",
        "paper_attacker",
    ),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
