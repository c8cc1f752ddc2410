"""Distributed Phases 2 and 3 — the full 3-phase SLP DAS protocol.

:func:`run_slp_setup` runs Phase 1 (Figure 2) and then the ``NSearch``
(Figure 3) and ``SRefine`` (Figure 4) phases.  Timeline (in
dissemination rounds):

* rounds ``0 … MSP-1`` — Phase 1 (neighbour discovery + DAS assignment);
* round ``MSP`` — the sink fires ``startS``, sending a ``SEARCH`` toward
  its minimum-slot child (Phase 2);
* the search hops node-to-node inside the same round structure; the
  selected start node fires ``startR`` immediately, recruiting the decoy
  path with ``CHANGE`` messages (Phase 3);
* remaining rounds — update disseminations (``Normal = 0``) cascade the
  ``receiveU`` repairs so the schedule settles back into a weak DAS.

The default engine is the flat-round kernel of
:mod:`repro.das.fast_setup`, whose result is read straight off its
arrays; the event-heap node process of :mod:`repro.slp.process` is the
legacy oracle, imported only when a run asks for it.
"""

from __future__ import annotations

from typing import Optional

from ..core import Schedule
from ..das.fast_setup import run_fast_setup
from ..das.kernels import resolve_setup_kernel
from ..das.protocol import DasProtocolConfig, setup_schedule
from ..errors import ProtocolError
from ..records import Record, factory
from ..simulator import (
    IdealNoise,
    NoiseModel,
    PHASE,
    SEND,
    SLOT_ASSIGNED,
    SLOT_CHANGED,
    Simulator,
)
from ..topology import NodeId, Topology


class SlpProtocolConfig(Record):
    """Parameters of the full 3-phase SLP DAS protocol (Table I).

    Attributes
    ----------
    das:
        The inherited Phase 1 parameters.
    search_distance:
        ``SD`` — hops the search travels (Table I: 3 or 5).
    change_length:
        ``CL`` — decoy path length budget (Table I: ``Δss − SD``; the
        harness computes the default from the topology).
    refinement_periods:
        Extra dissemination rounds after ``MSP`` for the search, change
        and update cascade to settle.  Deep cascades on the paper's
        grids need ~20 rounds of self-stabilising repair.
    """

    das: DasProtocolConfig = factory(DasProtocolConfig)
    search_distance: int = 3
    change_length: int = 5
    refinement_periods: int = 20

    def __post_init__(self) -> None:
        if self.search_distance < 1:
            raise ProtocolError("search distance must be at least 1")
        if self.change_length < 1:
            raise ProtocolError("change length must be at least 1")
        if self.refinement_periods < 2:
            raise ProtocolError("refinement needs at least 2 rounds to settle")


class SlpSetupResult(Record, frozen=False):
    """Outcome of a full 3-phase distributed run.

    Attributes
    ----------
    schedule:
        The refined weak-DAS schedule.
    simulator:
        The engine (trace carries per-kind counts).
    messages_sent:
        Total broadcasts across all three phases.
    search_messages, change_messages:
        Phase 2 / Phase 3 wire messages actually sent — the paper's
        "negligible overhead" quantities.
    start_node:
        The Phase 2 selected node, if one emerged.
    decoy_path:
        Nodes recruited onto the decoy path.
    phase1_messages:
        Broadcasts sent before the sink's ``startS`` (round ``MSP``).
        Phase 1 of an SLP run is a protectionless run of the same seed,
        so this equals ``run_das_setup(...).messages_sent``.
    phase1_unassigned:
        Ids (ascending) still without a slot when Phase 1 ended — the
        nodes ``run_das_setup`` of the same seed would report.
    """

    schedule: Schedule
    simulator: Simulator
    messages_sent: int
    search_messages: int
    change_messages: int
    start_node: Optional[NodeId]
    decoy_path: tuple
    phase1_messages: int
    phase1_unassigned: tuple


def run_slp_setup(
    topology: Topology,
    config: Optional[SlpProtocolConfig] = None,
    seed: Optional[int] = None,
    noise: Optional[NoiseModel] = None,
    setup_kernel: Optional[str] = None,
) -> SlpSetupResult:
    """Run the complete 3-phase distributed SLP DAS protocol.

    The default ``change_length`` is recomputed from the topology as
    ``max(1, Δss − SD)`` (Table I) when the caller passes no config.

    ``setup_kernel`` selects the engine exactly as in
    :func:`~repro.das.run_das_setup`: ``"fast"`` (the flat-round setup
    kernel, the default) or ``"legacy"`` (the event-heap process
    engine, the oracle), bit-identical either way.  A search/refinement
    chain geometry the fast kernel cannot prove safe raises
    :class:`~repro.errors.ConfigurationError` before the first round.
    """
    if config is None:
        sd = 3
        cl = max(1, topology.source_sink_distance() - sd)
        config = SlpProtocolConfig(search_distance=sd, change_length=cl)
    kernel = resolve_setup_kernel(setup_kernel, "run_slp_setup")

    sim = Simulator(
        topology,
        noise=noise if noise is not None else IdealNoise(),
        seed=seed,
        trace_kinds=frozenset({SLOT_ASSIGNED, SLOT_CHANGED, PHASE}),
    )
    das = config.das
    total = das.setup_periods + config.refinement_periods
    nodes = topology.nodes
    if kernel == "fast":
        state = run_fast_setup(
            sim,
            topology,
            das,
            search_distance=config.search_distance,
            change_length=config.change_length,
            total_rounds=total,
        )
        at = [state.index[n] for n in nodes]
        slots = {n: state.slot[i] for n, i in zip(nodes, at)}
        parents = {n: state.parent[i] for n, i in zip(nodes, at)}
        search_count = sum(state.search_sent)
        change_count = sum(state.change_sent)
        starts = [n for n, i in zip(nodes, at) if state.is_start[i]]
        decoys = [n for n, i in zip(nodes, at) if state.is_decoy[i]]
        phase1_sends = state.phase1_sends
        # Index order is id order, so the snapshot is already ascending.
        phase1_unassigned = state.phase1_unassigned
    else:
        from ..das.process import run_process_engine
        from .process import SlpNodeProcess

        processes = run_process_engine(
            sim,
            SlpNodeProcess,
            config,
            total,
            das.dissemination_period,
        )
        procs = processes.values()
        slots = {n: p.slot for n, p in processes.items()}
        parents = {n: p.parent for n, p in processes.items()}
        search_count = sum(p.search_sent for p in procs)
        change_count = sum(p.change_sent for p in procs)
        starts = [n for n, p in processes.items() if p.is_start_node]
        decoys = [n for n, p in processes.items() if p.is_decoy]
        phase1_sends = processes[topology.sink].phase1_sends
        phase1_unassigned = tuple(
            sorted(n for n, p in processes.items() if p.unassigned_after_phase1)
        )

    unassigned = [n for n, s in slots.items() if s is None]
    if unassigned:
        raise ProtocolError(
            f"{len(unassigned)} nodes never obtained a slot during SLP setup"
        )
    return SlpSetupResult(
        schedule=setup_schedule(slots, parents, topology.sink),
        simulator=sim,
        messages_sent=sim.trace.count(SEND),
        search_messages=search_count,
        change_messages=change_count,
        start_node=starts[0] if starts else None,
        decoy_path=tuple(sorted(decoys, key=slots.__getitem__, reverse=True)),
        phase1_messages=phase1_sends,
        phase1_unassigned=phase1_unassigned,
    )
