"""TDMA MAC layer: frame geometry and the slot-event driver."""

from .. import _lazy_exports

#: Submodule -> the public names it defines, each imported on first
#: access.
_EXPORTS = {
    "frame": (
        "TdmaFrame",
    ),
    "tdma": (
        "TdmaClient",
        "TdmaDriver",
    ),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
