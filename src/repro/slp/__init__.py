"""Source location privacy: Phases 2 and 3 and the full 3-phase pipeline.

* :func:`locate_redirection_node` / :func:`refine_slots` — centralised
  Phase 2 and Phase 3;
* :func:`build_slp_schedule` — the full centralised pipeline;
* :class:`SlpNodeProcess` / :func:`run_slp_setup` — the faithful
  distributed 3-phase protocol on the simulator.
"""

from .. import _lazy_exports

#: Submodule -> the public names it defines, each imported on first
#: access.
_EXPORTS = {
    "distributed": (
        "SlpProtocolConfig",
        "SlpSetupResult",
        "run_slp_setup",
    ),
    "messages": (
        "ChangeMessage",
        "SearchMessage",
    ),
    "process": (
        "SlpNodeProcess",
    ),
    "protocol": (
        "PAPER_SEARCH_DISTANCES",
        "SlpBuildResult",
        "SlpParameters",
        "build_slp_schedule",
        "default_change_length",
    ),
    "refine": (
        "RefinementResult",
        "refine_slots",
    ),
    "search": (
        "SearchResult",
        "locate_redirection_node",
    ),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
