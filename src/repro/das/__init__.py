"""Data aggregation scheduling (Phase 1 of the paper's protocol).

Two routes to a schedule are provided:

* :func:`run_das_setup` — the faithful distributed protocol of Figure 2,
  on the flat-round setup kernel or the event-heap node processes;
* :func:`centralized_das_schedule` — a seeded centralised generator that
  reproduces the same assignment rules (and the same arrival-order
  variance) without message exchange, for cheap experiment repeats.
"""

from .. import _lazy_exports

#: Submodule -> the public names it defines, each imported on first
#: access.
_EXPORTS = {
    "centralized": (
        "DEFAULT_NUM_SLOTS",
        "centralized_das_schedule",
    ),
    "fast_setup": (
        "run_fast_setup",
    ),
    "kernels": (
        "DEFAULT_SETUP_KERNEL",
        "SETUP_KERNELS",
        "resolve_setup_kernel",
    ),
    "messages": (
        "DissemMessage",
        "HelloMessage",
        "NodeInfo",
    ),
    "process": (
        "DasNodeProcess",
    ),
    "protocol": (
        "DasProtocolConfig",
        "DasSetupResult",
        "run_das_setup",
    ),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
