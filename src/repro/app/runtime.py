"""The operational-phase harness: data plane + attacker, per §VI.

:func:`run_operational_phase` reproduces one evaluation run of the
paper after setup has completed: every node broadcasts its aggregate in
its TDMA slot each period, and a ``(R, H, M, s0, D)`` eavesdropper
(starting at the sink) tries to reach the source before the safety
period expires.  The outcome feeds the capture-ratio metric of
Figure 5.

Beyond the paper's single static source, the harness also drives the
scenario subsystem's workload dynamics (:mod:`repro.app.dynamics`):
several simultaneously broadcasting sources, a mobile source rotating
through a pool of nodes, and scheduled perturbations (node death,
one-shot sleeps, recurring duty cycles) applied at period boundaries.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from ..attacker import AttackerSpec, EavesdropperAgent, paper_attacker
from ..core import Schedule, safety_period
from ..errors import ConfigurationError, invalid_field
from ..mac import TdmaFrame
from ..records import Record
from ..simulator import (
    ATTACKER_MOVE,
    CAPTURE,
    NoiseModel,
    SEND,
    Simulator,
)
from ..telemetry import active_tracer
from ..topology import NodeId, Topology
from .dynamics import SourcePlan, SourceTracker
from .fast_kernel import build_slot_timeline, run_fast_kernel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .perturbations import Perturbation

#: Kernel identifiers for :func:`run_operational_phase`.
FAST_KERNEL = "fast"
LEGACY_KERNEL = "legacy"
KERNELS = (FAST_KERNEL, LEGACY_KERNEL)

#: The kernel used when a call does not choose one.  The two engines
#: are bit-identical (differentially tested), so the fast one is the
#: default; ``legacy`` (the event heap) stays selectable as the oracle
#: a regression is bisected against, and runs only when asked for.
DEFAULT_KERNEL = FAST_KERNEL


class OperationalResult(Record):
    """Outcome of one operational run.

    Attributes
    ----------
    captured:
        Whether the attacker occupied a source within the run.
    capture_period:
        Period index of the capture, if any.
    capture_time:
        Simulated time of the capture, if any.
    periods_run:
        How many full TDMA periods executed.
    safety_periods:
        The safety-period budget the run enforced.
    attacker_path:
        Every node position the attacker occupied, in order.
    messages_sent:
        Data broadcasts during the run (the paper's runtime overhead is
        identical for both algorithms — one message per node per period).
    aggregation_ratio:
        Mean fraction of non-sink readings the sink collected per period
        (1.0 = perfect convergecast; degraded only by noise).
    captured_source:
        The source node the attacker captured (``None`` if it survived;
        equals the single source in paper-style runs, and identifies
        *which* source fell in multi-source scenarios).
    source_pool:
        Every node that held (or could hold) the asset during the run —
        one node for the paper's workload, several for multi-source and
        mobile-source scenarios.
    """

    captured: bool
    capture_period: Optional[int]
    capture_time: Optional[float]
    periods_run: int
    safety_periods: int
    attacker_path: Tuple[NodeId, ...]
    messages_sent: int
    aggregation_ratio: float
    captured_source: Optional[NodeId] = None
    source_pool: Tuple[NodeId, ...] = ()


#: Default retained trace kinds: only what the capture metrics read.
#: Everything else (every SEND/DELIVER on a 441-node grid) is counted
#: but not materialised — the counting-only fast path of the recorder.
OPERATIONAL_TRACE_KINDS = frozenset({ATTACKER_MOVE, CAPTURE})


def _resolve_source_plan(
    topology: Topology, source_plan: Optional[SourcePlan]
) -> SourcePlan:
    """Default to the paper's workload: the topology's designated source."""
    if source_plan is None:
        return SourcePlan.single(topology.source)
    for node in source_plan.nodes:
        if node not in topology:
            raise invalid_field(
                "SourcePlan",
                "nodes",
                node,
                f"is not part of topology {topology.name!r}",
            )
        if node == topology.sink:
            raise invalid_field(
                "SourcePlan",
                "nodes",
                node,
                "the sink cannot hold the asset (it is the attacker's anchor)",
            )
    return source_plan


def run_operational_phase(
    topology: Topology,
    schedule: Schedule,
    attacker: Optional[AttackerSpec] = None,
    noise: Optional[NoiseModel] = None,
    seed: Optional[int] = None,
    frame: Optional[TdmaFrame] = None,
    safety_factor: float = 1.5,
    max_periods: Optional[int] = None,
    attacker_start: Optional[NodeId] = None,
    trace_kinds: Optional[frozenset] = OPERATIONAL_TRACE_KINDS,
    source_plan: Optional[SourcePlan] = None,
    perturbations: Sequence[Perturbation] = (),
    kernel: Optional[str] = None,
    trace_out: Optional[List] = None,
) -> OperationalResult:
    """Simulate the operational phase of one evaluation run.

    Parameters
    ----------
    topology, schedule:
        The network and its (protectionless or SLP-refined) schedule.
        The schedule is compressed to fit the frame; compression
        preserves every order/equality relation the run depends on.
    attacker:
        Attacker parameters; ``None`` means the paper's
        ``(1, 0, 1, s0, first-heard)`` attacker, and an explicit
        ``AttackerSpec`` enables ablations.
    noise:
        Link noise; ``None`` is the ideal model.
    seed:
        Seeds the run RNG (noise draws, attacker tie-breaks).
    frame:
        TDMA frame geometry; defaults to Table I (100 × 0.05 s slots,
        0.5 s dissemination), widened automatically if the schedule
        needs more distinct slots than the frame offers.
    safety_factor:
        ``Cs`` of Eq. 1; the run executes ``⌈Cs × (Δss + 1)⌉`` periods.
        With several sources the *smallest* source–sink distance is
        used — the most conservative budget.
    max_periods:
        Override the period budget directly (used by ablations).
    attacker_start:
        ``s0``; defaults to the sink.
    trace_kinds:
        Which trace kinds the run retains in full (counts are always
        kept).  Defaults to :data:`OPERATIONAL_TRACE_KINDS` — the
        attacker events the metrics need; pass ``None`` to keep every
        record (slower, for debugging).  The outcome is identical in
        either mode.  The fast kernel keeps SEND/DELIVER/DROP as counts
        only, so retaining any of them needs ``kernel="legacy"``.
    source_plan:
        Which nodes hold the asset (:class:`~repro.app.dynamics.SourcePlan`);
        ``None`` means the paper's single static source, the topology's
        designated one.  The attacker captures by occupying any
        currently active source.
    perturbations:
        Scheduled mid-run changes (node death, sleeps, duty cycles),
        applied at period boundaries before any event of the period.
        Perturbing the sink or a source-pool node is rejected.
    kernel:
        One of two engines: ``"fast"`` (the flat slot timeline driving
        block-drawn periods, the default) or ``"legacy"`` (the
        event-heap TDMA driver, the oracle).  They are bit-identical —
        same results, same RNG stream, same trace — so the choice is a
        performance/bisection knob, not a semantic one.  ``None`` means
        :data:`DEFAULT_KERNEL`.  The run takes exactly the engine
        asked for: an input the fast kernel cannot run exactly (a slot
        not longer than the propagation delay, retained
        SEND/DELIVER/DROP records, audible senders sharing a slot)
        raises :class:`~repro.errors.ConfigurationError` naming the
        limit, before the first period.
    trace_out:
        Optional list the run's :class:`~repro.simulator.TraceRecorder`
        is appended to, for tests and tooling that need the trace of a
        run (the differential kernel tests compare counters this way).
    """
    resolved_kernel = kernel if kernel is not None else DEFAULT_KERNEL
    if resolved_kernel not in KERNELS:
        raise invalid_field(
            "run_operational_phase",
            "kernel",
            kernel,
            f"pick one of {KERNELS}",
        )
    spec = attacker if attacker is not None else paper_attacker()
    plan = _resolve_source_plan(topology, source_plan)
    if perturbations:
        from .perturbations import lower_perturbations, validate_perturbations

        validate_perturbations(topology, perturbations, plan)
    source_pool = plan.nodes
    compressed = schedule.compressed()
    distinct = max(compressed.slots().values())
    if frame is None:
        frame = TdmaFrame()
    if distinct > frame.num_slots:
        frame = TdmaFrame(
            num_slots=distinct,
            slot_duration=frame.slot_duration,
            dissemination_duration=frame.dissemination_duration,
        )

    if max_periods is not None:
        periods_budget = max_periods
    else:
        # Eq. 1 against the closest source: the budget a perfect
        # attacker needs for the easiest target in the pool.
        distance = min(topology.sink_distance(node) for node in source_pool)
        periods_budget = safety_period(
            topology, frame.period_length, factor=safety_factor, distance=distance
        ).periods
    if periods_budget < 1:
        raise ConfigurationError("the run must cover at least one period")

    sim = Simulator(
        topology,
        noise=noise,
        seed=seed,
        trace_kinds=trace_kinds,
    )
    tracker = SourceTracker(plan)
    start = attacker_start if attacker_start is not None else topology.sink
    agent = EavesdropperAgent(
        sim,
        spec,
        start=start,
        source=plan.primary,
        slot_lookup=compressed.slot_of,
        on_capture=lambda _t: sim.request_stop(),
        capture_test=tracker.is_source,
    )
    sim.radio.attach_eavesdropper(agent)
    steps = lower_perturbations(perturbations, periods_budget) if perturbations else ()

    tracer = active_tracer()
    phase_span = None
    if tracer is not None:
        phase_span = tracer.begin(
            "operational.phase",
            kernel=resolved_kernel,
            seed=seed,
        )
    try:
        if resolved_kernel == FAST_KERNEL:
            slots = compressed.slots()
            del slots[topology.sink]  # the sink never transmits
            timeline = build_slot_timeline(frame, slots)
            current_period, collected = run_fast_kernel(
                sim,
                frame,
                periods_budget,
                compressed.parents(),
                agent,
                tracker,
                timeline,
                steps,
            )
        else:
            from .convergecast import run_legacy_engine

            current_period, collected = run_legacy_engine(
                sim, frame, periods_budget, compressed, plan, agent, tracker, steps
            )
    finally:
        if phase_span is not None:
            tracer.end(phase_span)

    periods_run = min(current_period + 1, periods_budget)
    expected = topology.num_nodes - 1
    # A capture stops the run mid-period; that truncated period carries
    # no meaningful aggregation count and is excluded from the mean.
    complete_through = current_period if agent.captured else periods_budget
    ratios = [
        count / expected
        for period, count in collected.items()
        if period < complete_through
    ]
    aggregation = sum(ratios) / len(ratios) if ratios else 0.0

    if trace_out is not None:
        trace_out.append(sim.trace)

    if tracer is not None:
        from ..telemetry import default_registry

        sim.trace.publish_counts(default_registry())
    # Break the engine's reference cycles so the run is freed by
    # refcount; the trace stays readable (below, and for trace_out).
    sim.close()

    return OperationalResult(
        captured=agent.captured,
        capture_period=agent.capture_period,
        capture_time=agent.capture_time,
        periods_run=periods_run,
        safety_periods=periods_budget,
        attacker_path=agent.path,
        messages_sent=sim.trace.count(SEND),
        aggregation_ratio=aggregation,
        captured_source=agent.captured_source,
        source_pool=source_pool,
    )
