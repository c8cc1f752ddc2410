"""Distributed Phase 1 — the DAS slot assignment protocol of Figure 2.

:func:`run_das_setup` runs the fully distributed protocol: nodes learn
their neighbourhood from ``HELLO`` beacons, gossip their ``Ninfo`` views
every dissemination round, take a slot below the minimum they have
seen, and repair 2-hop collisions and ordering violations until the
slots settle (the node process of :mod:`repro.das.process` spells the
actions out).  The only global inputs are the constants of Table I.

Two engines run it, bit-identically: the flat-round kernel of
:mod:`repro.das.fast_setup` (the default), whose result is read straight
off its arrays, and the event-heap process engine of
:mod:`repro.das.process` (the oracle), which this module imports only
when a run asks for it.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core import Schedule
from ..errors import ProtocolError
from ..records import Record
from ..simulator import (
    IdealNoise,
    NoiseModel,
    SEND,
    Simulator,
    SLOT_ASSIGNED,
    SLOT_CHANGED,
)
from ..topology import NodeId, Topology
from .fast_setup import run_fast_setup
from .kernels import resolve_setup_kernel


class DasProtocolConfig(Record):
    """Phase 1 parameters (the protectionless-DAS rows of Table I).

    Attributes
    ----------
    dissemination_period:
        The paper's ``Pdiss`` / timer ``α`` — one protocol round, seconds.
    num_slots:
        The sink's initial slot ``Δ`` (Figure 2's ``size`` constant;
        Table I ``slots``).
    neighbour_discovery_periods:
        ``NDP`` — rounds of HELLO beaconing before dissemination.
    setup_periods:
        ``MSP`` — total setup rounds before the source activates.
    jitter_fraction:
        Broadcasts occur uniformly inside ``[0, jitter_fraction × α)`` of
        each round, reproducing TOSSIM's CSMA arrival-order variance.
    dissemination_timeout:
        ``DT`` — a node stops re-broadcasting after this many consecutive
        disseminations with no local state change (message economy; a
        change re-arms the counter).
    """

    dissemination_period: float = 0.5
    num_slots: int = 100
    neighbour_discovery_periods: int = 4
    setup_periods: int = 80
    jitter_fraction: float = 0.8
    dissemination_timeout: int = 5

    def __post_init__(self) -> None:
        if self.dissemination_period <= 0:
            raise ProtocolError("dissemination period must be positive")
        if self.num_slots < 1:
            raise ProtocolError("num_slots must be positive")
        if self.neighbour_discovery_periods < 1:
            raise ProtocolError("at least one neighbour discovery period is needed")
        if self.setup_periods <= self.neighbour_discovery_periods:
            raise ProtocolError(
                "setup must include dissemination periods after neighbour discovery"
            )
        if not 0.0 < self.jitter_fraction <= 1.0:
            raise ProtocolError("jitter fraction must lie in (0, 1]")
        if self.dissemination_timeout < 1:
            raise ProtocolError("dissemination timeout must be at least 1")


class DasSetupResult(Record, frozen=False):
    """Outcome of a full Phase 1 run.

    Attributes
    ----------
    schedule:
        The converged slot assignment (shifted so the minimum slot is 1).
    simulator:
        The engine the protocol ran in (trace carries message counts).
    messages_sent:
        Total broadcasts during setup — the overhead baseline.
    rounds:
        Setup rounds executed.
    """

    schedule: Schedule
    simulator: Simulator
    messages_sent: int
    rounds: int


def unassigned_error(unassigned) -> ProtocolError:
    """The error for a Phase 1 that left ``unassigned`` nodes slotless."""
    return ProtocolError(
        f"{len(unassigned)} nodes never obtained a slot during setup "
        f"(first few: {sorted(unassigned)[:5]})"
    )


def setup_schedule(
    slots: Dict[NodeId, int], parents: Dict[NodeId, Optional[NodeId]], sink: NodeId
) -> Schedule:
    """The schedule a finished setup leaves, its slots shifted so the
    minimum is 1 (the protocols count down from ``Δ``)."""
    min_slot = min(slots.values())
    if min_slot < 1:
        shift = 1 - min_slot
        slots = {n: s + shift for n, s in slots.items()}
    return Schedule(slots, parents, sink)


def run_das_setup(
    topology: Topology,
    config: Optional[DasProtocolConfig] = None,
    seed: Optional[int] = None,
    noise: Optional[NoiseModel] = None,
    setup_kernel: Optional[str] = None,
) -> DasSetupResult:
    """Run distributed Phase 1 on ``topology`` and extract the schedule.

    Raises :class:`~repro.errors.ProtocolError` when some node failed to
    obtain a slot within ``setup_periods`` rounds (e.g. under extreme
    loss).

    ``setup_kernel`` picks the engine: ``"fast"`` (the flat-round setup
    kernel of :mod:`repro.das.fast_setup`, the default) or ``"legacy"``
    (the event-heap process engine, the oracle).  Both are bit-identical
    — same RNG stream, same schedule, same traces — so the knob exists
    for bisection, and the run takes exactly the engine asked for.  A
    round geometry in which the fast kernel cannot preserve heap event
    order raises :class:`~repro.errors.ConfigurationError` before the
    first round (see :func:`~repro.das.fast_setup.run_fast_setup`).
    """
    cfg = config if config is not None else DasProtocolConfig()
    kernel = resolve_setup_kernel(setup_kernel, "run_das_setup")
    sim = Simulator(
        topology,
        noise=noise if noise is not None else IdealNoise(),
        seed=seed,
        trace_kinds=frozenset({SLOT_ASSIGNED, SLOT_CHANGED}),
    )
    if kernel == "fast":
        state = run_fast_setup(sim, topology, cfg)
        index = state.index
        slots = {n: state.slot[index[n]] for n in topology.nodes}
        parents = {n: state.parent[index[n]] for n in topology.nodes}
    else:
        from .process import DasNodeProcess, run_process_engine

        processes = run_process_engine(
            sim,
            DasNodeProcess,
            cfg,
            cfg.setup_periods,
            cfg.dissemination_period,
        )
        slots = {n: p.slot for n, p in processes.items()}
        parents = {n: p.parent for n, p in processes.items()}

    unassigned = [n for n, s in slots.items() if s is None]
    if unassigned:
        raise unassigned_error(unassigned)
    return DasSetupResult(
        schedule=setup_schedule(slots, parents, topology.sink),
        simulator=sim,
        messages_sent=sim.trace.count(SEND),
        rounds=cfg.setup_periods,
    )
