"""The 3-phase SLP DAS pipeline, centralised form.

:func:`build_slp_schedule` chains the three phases the way the
experiment harness needs them: Phase 1 schedule (either supplied, e.g.
from the distributed protocol, or generated by the seeded centralised
generator), Phase 2 search, Phase 3 refinement.  One seed drives all
jitter and tie-breaks, so a build is fully reproducible.
"""

from __future__ import annotations

import random
from typing import Optional

from ..core import Schedule
from ..das import centralized_das_schedule, DEFAULT_NUM_SLOTS
from ..errors import invalid_field
from ..records import Record
from ..topology import Topology
from .refine import RefinementResult, refine_slots
from .search import SearchResult, locate_redirection_node

#: Search distances evaluated in the paper (Table I / Figure 5).
PAPER_SEARCH_DISTANCES = (3, 5)


def default_change_length(topology: Topology, search_distance: int) -> int:
    """Table I's ``CL = Δss − SD`` (clamped to at least one hop)."""
    return max(1, topology.source_sink_distance() - search_distance)


class SlpParameters(Record):
    """The two SLP-specific knobs of Table I.

    Attributes
    ----------
    search_distance:
        ``SD`` — hops the Phase 2 search travels (paper: 3 and 5).
    change_length:
        ``CL`` — decoy path budget; ``None`` means Table I's ``Δss − SD``.
    avoid_source_pull:
        Steer decoy recruitment away from the source (default) or pick
        uniformly (ablation).
    """

    search_distance: int = 3
    change_length: Optional[int] = None
    avoid_source_pull: bool = True

    def __post_init__(self) -> None:
        if self.search_distance < 1:
            raise invalid_field(
                "SlpParameters", "search_distance", self.search_distance,
                "SD (search distance) must be at least 1",
            )
        if self.change_length is not None and self.change_length < 1:
            raise invalid_field(
                "SlpParameters", "change_length", self.change_length,
                "CL (change length) must be at least 1",
            )

    def resolved_change_length(self, topology: Topology) -> int:
        """The concrete ``CL`` for ``topology``."""
        if self.change_length is not None:
            return self.change_length
        return default_change_length(topology, self.search_distance)


class SlpBuildResult(Record):
    """Everything produced by one 3-phase build.

    Attributes
    ----------
    schedule:
        The refined SLP-aware schedule (a weak DAS).
    baseline:
        The Phase 1 protectionless schedule the refinement started from.
    search:
        Phase 2 outcome (start node, search path).
    refinement:
        Phase 3 outcome (decoy path, cascade size).
    """

    schedule: Schedule
    baseline: Schedule
    search: SearchResult
    refinement: RefinementResult

    @property
    def slots_changed(self) -> int:
        """How many nodes hold a different slot than in the baseline.

        Refinement may apply one uniform shift at the end (to stay in the
        positive range); the sink never changes otherwise, so anchoring
        the comparison on the sink's delta removes the shift.
        """
        base = self.baseline.slots()
        refined = self.schedule.slots()
        shift = refined[self.schedule.sink] - base[self.baseline.sink]
        return sum(1 for n in base if refined[n] != base[n] + shift)


def build_slp_schedule(
    topology: Topology,
    params: Optional[SlpParameters] = None,
    num_slots: int = DEFAULT_NUM_SLOTS,
    seed: Optional[int] = None,
    baseline: Optional[Schedule] = None,
    jitter: bool = True,
) -> SlpBuildResult:
    """Run the full 3-phase pipeline and return the SLP-aware schedule.

    Parameters
    ----------
    topology:
        The network (must have a designated source for the safety-period
        driven defaults).
    params:
        SLP knobs; defaults to ``SD = 3`` with Table I's ``CL``.
    num_slots:
        Phase 1's initial sink slot ``Δ``.
    seed:
        Drives Phase 1 jitter and Phase 2/3 tie-breaks.
    baseline:
        A pre-built Phase 1 schedule (e.g. from the distributed
        protocol); generated centrally when omitted.
    jitter:
        Forwarded to the Phase 1 generator: ``False`` uses the single
        canonical identifier-ordered baseline.  Phases 2 and 3 keep
        their seeded tie-breaks either way, so an SLP build remains
        seed-dependent even without jitter.
    """
    params = params if params is not None else SlpParameters()
    rng = random.Random(seed)
    if baseline is None:
        baseline = centralized_das_schedule(
            topology, num_slots=num_slots, seed=rng.randrange(2**31), jitter=jitter
        )
    search = locate_redirection_node(
        topology,
        baseline,
        params.search_distance,
        rng=random.Random(rng.randrange(2**31)),
    )
    refinement = refine_slots(
        topology,
        baseline,
        search,
        change_length=params.resolved_change_length(topology),
        seed=rng.randrange(2**31),
        avoid_source_pull=params.avoid_source_pull,
    )
    return SlpBuildResult(
        schedule=refinement.schedule,
        baseline=baseline,
        search=search,
        refinement=refinement,
    )
