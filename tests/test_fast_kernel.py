"""Differential tests for the operational-phase fast kernel.

The contract: there are two engines, a run takes exactly the one it
asks for, and a ``"fast"`` run is *bit-identical* to the legacy
event-heap engine: same :class:`OperationalResult`, same trace counters,
same retained records, same RNG consumption, for every workload the
repository can express.  The inputs the fast kernel cannot run exactly
are refused with a :class:`ConfigurationError` naming the limit and the
legacy request.  Every registered scenario is driven through both
kernels here, and so are generated networks; the serial/parallel
identity of the fast kernel is additionally covered by
``tests/test_scenarios.py`` (the fast kernel is the default, so those
sweeps already exercise it).
"""

from __future__ import annotations

import math

import pytest
from differential import differential_settings, unit_disk_topologies
from hypothesis import given
from hypothesis import strategies as st

from repro.app import (
    FAST_KERNEL,
    LEGACY_KERNEL,
    DutyCycle,
    NodeDeath,
    NodeSleep,
    SourcePlan,
    build_slot_timeline,
    run_operational_phase,
)
from repro.das import centralized_das_schedule
from repro.errors import ConfigurationError
from repro.experiments import ExperimentRunner
from repro.mac import TdmaFrame
from repro.scenarios import ScenarioRunner, get_scenario, scenario_names
from repro.simulator import BernoulliNoise, CasinoLabNoise, IdealNoise
from repro.simulator import trace as kinds

#: The refusal's pointer to the engine that runs what the fast kernel
#: refuses.
LEGACY_REQUEST = "kernel='legacy', --legacy-kernel"

#: The radio's propagation delay (``RadioMedium``'s default).
DELAY = 1e-4

#: Seeds per scenario for the differential sweep (kept small: the suite
#: runs every registered scenario through both kernels).
DIFF_SEEDS = 2

#: Kernel order for differentials: the reference engine first.
ALL_KERNELS = (LEGACY_KERNEL, FAST_KERNEL)


def _attacker_spec(r, h, m, decision):
    """An AttackerSpec with a named decision function."""
    from repro.attacker import AttackerSpec
    from repro.attacker.decision import AvoidRecentlyVisited, FollowAnyHeard

    chooser = FollowAnyHeard() if decision == "any" else AvoidRecentlyVisited()
    return AttackerSpec(
        messages_per_move=r, history_size=h, moves_per_period=m, decision=chooser
    )


def _run_all(topology, schedule, *, seed, trace_kinds="default", **kwargs):
    """One run per kernel, returning (results, trace recorders)."""
    outcomes, traces = [], []
    for kernel in ALL_KERNELS:
        out: list = []
        extra = {} if trace_kinds == "default" else {"trace_kinds": trace_kinds}
        outcomes.append(
            run_operational_phase(
                topology,
                schedule,
                seed=seed,
                kernel=kernel,
                trace_out=out,
                **extra,
                **kwargs,
            )
        )
        traces.append(out[0])
    return outcomes, traces


def _assert_identical(outcomes, traces):
    """Every kernel's result and trace counters must match the legacy's."""
    legacy, legacy_trace = outcomes[0], traces[0]
    for outcome, trace in zip(outcomes[1:], traces[1:]):
        assert outcome == legacy
        assert trace.counts() == legacy_trace.counts()


class TestKernelEquivalence:
    @pytest.mark.parametrize("name", sorted(scenario_names()))
    def test_every_registered_scenario_is_bit_identical(self, name):
        """Results AND trace counters agree, per scenario, per seed,
        across the legacy and fast (table lane) kernels."""
        spec = get_scenario(name)
        topology = spec.build_topology()
        config = spec.to_config(repeats=DIFF_SEEDS)
        runner = ExperimentRunner(topology)
        for i in range(DIFF_SEEDS):
            seed = config.base_seed + i
            schedule = runner.build_schedule(config, seed)
            outcomes, traces = _run_all(
                topology,
                schedule,
                seed=seed,
                attacker=config.attacker,
                noise=config.make_noise(),
                frame=config.parameters.frame(),
                safety_factor=config.parameters.safety_factor,
                max_periods=config.max_periods,
                source_plan=config.source_plan,
                perturbations=config.perturbations,
            )
            _assert_identical(outcomes, traces)

    def test_full_trace_records_are_identical(self, grid7):
        """With every kind retained that the fast kernel keeps as
        records (all but SEND/DELIVER/DROP, which it only counts), the
        record streams match too."""
        schedule = centralized_das_schedule(grid7, seed=3)
        outcomes, traces = _run_all(
            grid7,
            schedule,
            seed=3,
            noise=CasinoLabNoise(),
            trace_kinds=frozenset(
                {kinds.PERIOD_START, kinds.ATTACKER_HEAR, kinds.ATTACKER_MOVE,
                 kinds.CAPTURE}
            ),
        )
        _assert_identical(outcomes, traces)
        assert traces[0].count(kinds.PERIOD_START) > 0
        for trace in traces[1:]:
            assert trace.records == traces[0].records

    def test_scenario_sweeps_identical_serial_and_parallel(self, pooled_sweeps):
        """ScenarioRunner reports are byte-identical across kernels,
        through both the serial engine and a worker pool."""
        legacy = ScenarioRunner(workers=1, kernel=LEGACY_KERNEL).run(
            "churn-10pct", seeds=DIFF_SEEDS
        )
        fast_serial = ScenarioRunner(workers=1, kernel=FAST_KERNEL).run(
            "churn-10pct", seeds=DIFF_SEEDS
        )
        fast_parallel = ScenarioRunner(workers=2, kernel=FAST_KERNEL).run(
            "churn-10pct", seeds=DIFF_SEEDS
        )
        assert pooled_sweeps == [2]
        assert legacy.to_json() == fast_serial.to_json()
        assert legacy.to_json() == fast_parallel.to_json()


class TestFastLaneDynamics:
    """The fast lane × workload-dynamics interplay: perturbations must
    invalidate/patch the forwarding tables mid-run and stay bit-identical
    to the legacy heap."""

    def _grid_nodes(self, topology):
        """A few perturbable nodes (not sink, not source)."""
        excluded = {topology.sink, topology.source}
        return [n for n in topology.nodes if n not in excluded]

    def test_node_death_is_bit_identical(self, grid7):
        schedule = centralized_das_schedule(grid7, seed=5)
        victims = tuple(self._grid_nodes(grid7)[3:7])
        for seed in range(DIFF_SEEDS):
            outcomes, traces = _run_all(
                grid7,
                schedule,
                seed=seed,
                noise=CasinoLabNoise(),
                perturbations=(NodeDeath(period=2, nodes=victims),),
            )
            _assert_identical(outcomes, traces)
            # The perturbation really engaged: dead nodes stop sending.
            healthy = run_operational_phase(
                grid7, schedule, seed=seed, noise=CasinoLabNoise()
            )
            if outcomes[0].periods_run == healthy.periods_run:
                assert outcomes[0].messages_sent < healthy.messages_sent

    def test_sleep_and_duty_cycle_rebuild_tables(self, grid7):
        """Sleep/wake and recurring duty cycles flip radio attachment
        (and therefore the compiled fan-out tables) repeatedly."""
        schedule = centralized_das_schedule(grid7, seed=8)
        nodes = self._grid_nodes(grid7)
        perturbations = (
            NodeSleep(period=1, wake_period=3, nodes=(nodes[0], nodes[1])),
            DutyCycle(nodes=(nodes[5], nodes[6]), cycle_length=3, sleep_for=1),
        )
        for seed in range(DIFF_SEEDS):
            outcomes, traces = _run_all(
                grid7,
                schedule,
                seed=seed,
                noise=CasinoLabNoise(),
                perturbations=perturbations,
            )
            _assert_identical(outcomes, traces)

    def test_a_detach_refreshes_only_the_neighbours_fanouts(self, grid7, monkeypatch):
        """A toggled node changes only its neighbours' fan-outs, so the
        perturbation boundary reads exactly theirs from the radio."""
        from repro.simulator import RadioMedium

        schedule = centralized_das_schedule(grid7, seed=5)
        victim = self._grid_nodes(grid7)[10]
        read = []
        real = RadioMedium.fanout

        def spy(radio, sender):
            read.append(sender)
            return real(radio, sender)

        monkeypatch.setattr(RadioMedium, "fanout", spy)
        outcomes, traces = _run_all(
            grid7,
            schedule,
            seed=1,
            noise=CasinoLabNoise(),
            perturbations=(NodeDeath(period=2, nodes=(victim,)),),
        )
        _assert_identical(outcomes, traces)
        assert outcomes[0].periods_run > 2  # the detach really happened
        # The legacy run reads every fan-out through _fanout_of, not the
        # public accessor; the fast run reads the victim's neighbours'.
        assert sorted(read) == sorted(
            n for n in grid7.neighbours(victim) if n != grid7.sink
        )

    def test_mobile_source_rotation_capture_is_bit_identical(self, grid7):
        """A rotating source can capture by walking onto the attacker
        (a period-boundary capture with buffered state to sync)."""
        schedule = centralized_das_schedule(grid7, seed=2)
        pool = tuple(self._grid_nodes(grid7)[:3])
        for seed in range(DIFF_SEEDS):
            outcomes, traces = _run_all(
                grid7,
                schedule,
                seed=seed,
                noise=CasinoLabNoise(),
                source_plan=SourcePlan(nodes=pool, rotation_period=2),
            )
            _assert_identical(outcomes, traces)

    def test_mid_period_capture_is_bit_identical(self, grid7):
        """Seeds where the attacker wins mid-period: the lane must stop
        after the capturing transmission with the group's buffered
        deliveries discarded, exactly like the heap."""
        schedule = centralized_das_schedule(grid7, seed=0)
        captured = 0
        for seed in range(12):
            outcomes, traces = _run_all(
                grid7, schedule, seed=seed, noise=CasinoLabNoise()
            )
            _assert_identical(outcomes, traces)
            captured += outcomes[0].captured
        assert captured > 0  # the differential covered real captures

    def test_sink_overhearing_a_non_child_folds_both_lanes_in_lane_order(self, grid7):
        """A sink neighbour reparented away from the sink sends two
        aggregating lanes, the sink's before its parent's: under heavy
        loss both engines fold exactly the lanes that arrived."""
        from repro.core import Schedule

        schedule = centralized_das_schedule(grid7, seed=3)
        sink = grid7.sink
        parents = schedule.parents()
        for node in grid7.neighbours(sink):
            row = grid7.neighbours(node)
            later = [n for n in row[row.index(sink) + 1 :] if n != sink]
            if later:
                parents[node] = later[0]
                break
        else:  # pragma: no cover - every grid row has one
            pytest.fail("no sink neighbour with a later neighbour")
        moved = Schedule(schedule.slots(), parents, sink)
        hot = dict(p_good_to_bad=0.4, p_bad_to_good=0.3, bad_loss=0.6)
        for seed in range(8):
            outcomes, traces = _run_all(
                grid7, moved, seed=seed, noise=CasinoLabNoise(**hot), max_periods=6
            )
            _assert_identical(outcomes, traces)

    def test_capture_mid_slot_group_with_losses_pins_every_counter(self, grid7):
        """A capture by a sender that shares its slot group, in a run
        that drops frames: SEND counts the group's senders up to the
        capturing one, DROP their losses, DELIVER only the earlier
        groups' arrivals, and the retained ATTACKER_HEAR records match
        the heap's one for one."""
        from repro.app import OPERATIONAL_TRACE_KINDS
        from repro.simulator import ATTACKER_HEAR, DELIVER, DROP, SEND

        schedule = centralized_das_schedule(grid7, seed=0).compressed()
        slots = schedule.slots()
        del slots[grid7.sink]
        by_slot = {}
        for node, slot in slots.items():
            by_slot.setdefault(slot, []).append(node)
        kinds = OPERATIONAL_TRACE_KINDS | {ATTACKER_HEAR}
        hot = dict(p_good_to_bad=0.3, p_bad_to_good=0.3, bad_loss=0.5)
        pinned = 0
        for seed in range(40):
            outcomes, traces = _run_all(
                grid7,
                schedule,
                seed=seed,
                noise=CasinoLabNoise(**hot),
                trace_kinds=kinds,
            )
            legacy, legacy_trace = outcomes[0], traces[0]
            if not legacy.captured or not legacy_trace.count(DROP):
                continue
            # The capturing move follows the run's last hear.
            last_hear = legacy_trace.last(ATTACKER_HEAR)
            if last_hear is None or len(by_slot[slots[last_hear.detail["sender"]]]) < 2:
                continue
            _assert_identical(outcomes, traces)
            fast_trace = traces[1]
            for kind in (SEND, DELIVER, DROP, ATTACKER_HEAR):
                assert fast_trace.count(kind) == legacy_trace.count(kind), kind
            assert fast_trace.records == legacy_trace.records
            pinned += 1
        assert pinned > 0, pinned  # the sweep met such a capture

    @pytest.mark.parametrize(
        "spec_name,spec",
        [
            ("buffered", lambda: _attacker_spec(3, 0, 2, "any")),
            ("multi-move", lambda: _attacker_spec(1, 0, 3, "any")),
            ("history", lambda: _attacker_spec(1, 2, 1, "avoid")),
            ("rng-heavy", lambda: _attacker_spec(2, 1, 2, "any")),
        ],
    )
    def test_attacker_specs_exercise_inline_hear_decide(
        self, grid7, spec_name, spec
    ):
        """The lane's compiled hear/decide path — ARcv buffering past
        R=1, repeated same-period moves (each refreshing the audibility
        row), H-deep history and RNG tie-breaks — must stay bit-identical
        for capture times, periods and full attacker paths."""
        schedule = centralized_das_schedule(grid7, seed=4)
        moved = 0
        for seed in range(6):
            outcomes, traces = _run_all(
                grid7,
                schedule,
                seed=seed,
                noise=CasinoLabNoise(),
                attacker=spec(),
            )
            _assert_identical(outcomes, traces)
            first = outcomes[0]
            for outcome in outcomes[1:]:
                assert outcome.attacker_path == first.attacker_path
                assert outcome.capture_time == first.capture_time
                assert outcome.capture_period == first.capture_period
            moved += len(first.attacker_path) > 1
        assert moved > 0  # the inline Decide really fired


class TestRefusals:
    """An input the fast kernel cannot run exactly is refused before the
    first period, naming its limit and the legacy request; the legacy
    engine runs the same input when asked for."""

    def test_retained_message_trace_is_refused(self, grid5, grid5_schedule):
        with pytest.raises(ConfigurationError, match="SEND/DELIVER/DROP") as exc:
            run_operational_phase(
                grid5, grid5_schedule, seed=0, kernel=FAST_KERNEL, trace_kinds=None
            )
        assert LEGACY_REQUEST in str(exc.value)
        for kind in (kinds.SEND, kinds.DELIVER, kinds.DROP):
            with pytest.raises(ConfigurationError, match="SEND/DELIVER/DROP"):
                run_operational_phase(
                    grid5, grid5_schedule, seed=0, trace_kinds=frozenset({kind})
                )
        legacy = run_operational_phase(
            grid5, grid5_schedule, seed=0, kernel=LEGACY_KERNEL, trace_kinds=None
        )
        assert legacy == run_operational_phase(grid5, grid5_schedule, seed=0)

    def test_fast_run_builds_no_process_objects(
        self, grid5, grid5_schedule, monkeypatch
    ):
        """The fast path keeps node state in the kernel's arrays: a
        fast run constructs no process object, and only the legacy
        engine does."""
        import repro.app.convergecast as convergecast

        def refuse(self, *args, **kwargs):
            raise AssertionError("a process object was built")

        monkeypatch.setattr(
            convergecast.ConvergecastNodeProcess, "__init__", refuse
        )
        run_operational_phase(grid5, grid5_schedule, seed=0, kernel=FAST_KERNEL)
        with pytest.raises(AssertionError, match="process object"):
            run_operational_phase(
                grid5, grid5_schedule, seed=0, kernel=LEGACY_KERNEL
            )

    def test_audible_slot_sharing_is_refused(self, grid5, grid5_schedule):
        """Two adjacent senders in one slot group (impossible under
        Def. 1, but expressible via a hand-built schedule): folding the
        group's aggregation after the fact would miss what one hears
        from the other, so the fast kernel refuses the schedule."""
        slots = grid5_schedule.slots()
        a = grid5.sink
        neighbours = [n for n in grid5.neighbours(a) if n != grid5.sink]
        n1 = neighbours[0]
        n2 = [m for m in grid5.neighbours(n1) if m not in (a, grid5.sink)][0]
        slots[n2] = slots[n1]  # adjacent nodes, same slot
        shared = grid5_schedule.with_slots(slots)
        with pytest.raises(ConfigurationError, match="hear each other") as exc:
            run_operational_phase(grid5, shared, seed=1, kernel=FAST_KERNEL)
        assert LEGACY_REQUEST in str(exc.value)
        assert f"{min(n1, n2)!r} and {max(n1, n2)!r}" in str(exc.value)
        legacy = run_operational_phase(grid5, shared, seed=1, kernel=LEGACY_KERNEL)
        assert legacy.periods_run > 0

    @pytest.mark.parametrize("name", sorted(scenario_names()))
    def test_default_run_uses_the_table_lane(self, name, monkeypatch):
        """Every registered scenario's default run engages the lane."""
        import repro.app.runtime as runtime

        calls = []
        real = runtime.run_fast_kernel

        def spy(*args, **kwargs):
            calls.append(True)
            return real(*args, **kwargs)

        monkeypatch.setattr(runtime, "run_fast_kernel", spy)
        spec = get_scenario(name)
        topology = spec.build_topology()
        config = spec.to_config(repeats=1)
        ExperimentRunner(topology).run_once(config, config.base_seed)
        assert calls

    def test_phase_span_reports_the_requested_engine(self, grid7):
        """The ``operational.phase`` span's ``fast`` attribute is the
        request, also on a request the fast kernel refuses."""
        from repro.telemetry import TelemetrySession

        schedule = centralized_das_schedule(grid7, seed=3)
        with TelemetrySession(directory=None) as session:
            for kernel in (FAST_KERNEL, LEGACY_KERNEL, None):
                run_operational_phase(grid7, schedule, seed=3, kernel=kernel)
            with pytest.raises(ConfigurationError):
                run_operational_phase(
                    grid7, schedule, seed=3, kernel=FAST_KERNEL, trace_kinds=None
                )
        phases = [
            span
            for span in session.tracer.spans()
            if span.name == "operational.phase"
        ]
        assert [span.attrs["fast"] for span in phases] == [True, False, True, True]
        assert [span.attrs["kernel"] for span in phases] == [
            FAST_KERNEL, LEGACY_KERNEL, FAST_KERNEL, FAST_KERNEL,
        ]


class TestKernelSelection:
    def test_invalid_kernel_rejected(self, grid5, grid5_schedule):
        with pytest.raises(ConfigurationError, match="kernel"):
            run_operational_phase(grid5, grid5_schedule, seed=0, kernel="warp")

    @pytest.mark.parametrize("slot", [5e-5, DELAY])
    def test_slot_not_longer_than_the_delay_is_refused(
        self, grid5, grid5_schedule, slot
    ):
        """A delivery would land at or after the next slot's start, so
        the fast kernel refuses the frame; the legacy engine runs it."""
        frame = TdmaFrame(num_slots=200, slot_duration=slot)
        with pytest.raises(ConfigurationError, match="propagation delay") as exc:
            run_operational_phase(
                grid5, grid5_schedule, seed=1, frame=frame, kernel=FAST_KERNEL
            )
        assert LEGACY_REQUEST in str(exc.value)
        legacy = run_operational_phase(
            grid5, grid5_schedule, seed=1, frame=frame, kernel=LEGACY_KERNEL
        )
        assert legacy.periods_run > 0

    def test_non_default_frame_timestamps_stay_bit_identical(self, grid7):
        """Float addition is not associative: a frame whose slot times
        differ by one ulp between grouping orders must still produce
        equal capture times (regression: the kernel once precomputed
        dissemination + offset, diverging from slot_start's order)."""
        frame = TdmaFrame(
            num_slots=50, slot_duration=0.1, dissemination_duration=0.3
        )
        schedule = centralized_das_schedule(grid7, num_slots=50, seed=0)
        for seed in range(3):
            outcomes, traces = _run_all(
                grid7,
                schedule,
                seed=seed,
                noise=CasinoLabNoise(),
                frame=frame,
            )
            _assert_identical(outcomes, traces)


class TestSlotTimeline:
    def test_fire_order_matches_heap_order(self, grid5, grid5_schedule):
        """Groups ascend by slot; senders ascend within a group; the
        sink (which never transmits) never appears."""
        slots = grid5_schedule.compressed().slots()
        del slots[grid5.sink]
        frame = TdmaFrame()
        timeline = build_slot_timeline(frame, slots)
        slots = [slot for slot, _, _ in timeline]
        assert slots == sorted(slots)
        seen = set()
        for slot, offset, senders in timeline:
            # Reassembled in slot_start's own float-addition order, the
            # offsets reproduce the heap timestamps exactly.
            base = frame.period_start(0) + frame.dissemination_duration
            assert base + offset == frame.slot_start(0, slot)
            assert list(senders) == sorted(senders)
            assert grid5.sink not in senders
            seen.update(senders)
        assert seen == set(grid5.nodes) - {grid5.sink}


# ----------------------------------------------------------------------
# Generated differential: fast == legacy on generated networks.
# ----------------------------------------------------------------------
#: Noise models as ``(name, parameters)``, built fresh for each engine.
NOISE_CASES = st.one_of(
    st.just(("ideal", {})),
    st.tuples(
        st.just("bernoulli"),
        st.fixed_dictionaries({"loss_probability": st.floats(0.0, 0.6)}),
    ),
    st.tuples(
        st.just("casino"),
        st.fixed_dictionaries(
            {
                "good_loss": st.floats(0.0, 0.3),
                "bad_loss": st.floats(0.0, 0.9),
                "p_good_to_bad": st.floats(0.01, 1.0),
                "p_bad_to_good": st.floats(0.01, 1.0),
            }
        ),
    ),
)

NOISE_MODELS = {
    "ideal": IdealNoise,
    "bernoulli": BernoulliNoise,
    "casino": CasinoLabNoise,
}


def perturbation_lists(topology):
    """Up to three deaths, sleeps and duty cycles of nodes that are
    neither the sink nor the source."""
    free = sorted(set(topology.nodes) - {topology.sink, topology.source})
    if not free:
        return st.just(())
    nodes = st.lists(st.sampled_from(free), min_size=1, max_size=3, unique=True)
    one = st.one_of(
        st.builds(NodeDeath, period=st.integers(0, 6), nodes=nodes),
        st.integers(0, 5).flatmap(
            lambda start: st.builds(
                NodeSleep,
                period=st.just(start),
                wake_period=st.integers(start + 1, start + 4),
                nodes=nodes,
            )
        ),
        st.integers(2, 4).flatmap(
            lambda cycle: st.builds(
                DutyCycle,
                nodes=nodes,
                cycle_length=st.just(cycle),
                sleep_for=st.integers(1, cycle - 1),
                offset=st.integers(0, 3),
            )
        ),
    )
    return st.lists(one, max_size=3).map(tuple)


def _generated_runs(topology, schedule_seed, noise, seed, reparent=(), **kwargs):
    """Both engines on one generated case: ``(outcomes, traces)``, or
    the fast request's refusal in place of its outcome.  Each
    ``reparent`` pair ``(i, j)`` moves the ``i``-th non-sink node's
    parent to its ``j``-th neighbour (modulo the counts), so a sink
    neighbour can send to another parent while the sink overhears it."""
    from repro.core import Schedule

    name, params = noise
    schedule = centralized_das_schedule(topology, seed=schedule_seed)
    if reparent:
        parents = schedule.parents()
        movable = [n for n in topology.nodes if n != topology.sink]
        for i, j in reparent:
            node = movable[i % len(movable)]
            row = topology.neighbours(node)
            parents[node] = row[j % len(row)]
        schedule = Schedule(schedule.slots(), parents, topology.sink)
    outcomes, traces = [], []
    for kernel in ALL_KERNELS:
        out: list = []
        try:
            outcome = run_operational_phase(
                topology,
                schedule,
                seed=seed,
                noise=NOISE_MODELS[name](**params),
                kernel=kernel,
                trace_out=out,
                **kwargs,
            )
        except ConfigurationError as exc:
            if kernel == LEGACY_KERNEL:
                raise
            outcome = exc
        outcomes.append(outcome)
        traces.append(out[0] if out else None)
    return outcomes, traces


class TestGeneratedDifferential:
    """Fast equals legacy on generated unit-disk networks, schedules
    (reparented too), noise models, attackers, perturbations and seeds:
    the :class:`OperationalResult` and the SEND/DELIVER/DROP/ATTACKER_HEAR
    counters."""

    @given(
        topology=unit_disk_topologies(),
        data=st.data(),
        noise=NOISE_CASES,
        r=st.integers(1, 3),
        m=st.integers(1, 3),
        max_periods=st.one_of(st.none(), st.integers(1, 10)),
        schedule_seed=st.integers(0, 2**16),
        reparent=st.lists(
            st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=3
        ),
        seed=st.integers(0, 2**31 - 1),
    )
    @differential_settings(max_examples=200)
    def test_fast_matches_legacy(
        self, topology, data, noise, r, m, max_periods, schedule_seed, reparent,
        seed,
    ):
        from repro.attacker import AttackerSpec

        perturbations = data.draw(perturbation_lists(topology), "perturbations")
        outcomes, traces = _generated_runs(
            topology,
            schedule_seed,
            noise,
            seed,
            reparent=reparent,
            attacker=AttackerSpec(messages_per_move=r, moves_per_period=m),
            perturbations=perturbations,
            max_periods=max_periods,
        )
        _assert_identical(outcomes, traces)
        for kind in (kinds.SEND, kinds.DELIVER, kinds.DROP, kinds.ATTACKER_HEAR):
            assert traces[1].count(kind) == traces[0].count(kind), kind

    @given(
        topology=unit_disk_topologies(),
        slot=st.sampled_from(
            (
                DELAY / 2,
                math.nextafter(DELAY, 0.0),
                DELAY,
                math.nextafter(DELAY, 1.0),
                DELAY * (1 + 1e-9),
                DELAY * 1.5,
                DELAY * 2,
            )
        ),
        noise=NOISE_CASES,
        seed=st.integers(0, 2**31 - 1),
    )
    @differential_settings(max_examples=60)
    def test_slot_boundary_matches_legacy_or_is_refused(
        self, topology, slot, noise, seed
    ):
        """Slots around the propagation delay: the fast kernel equals
        the legacy engine, or refuses the frame with the documented
        error — always for a slot not longer than the delay, never for
        one half as long again.  (One ulp above the delay is refused:
        the heap's rounded timestamps can tie a delivery with the next
        slot's start.)"""
        frame = TdmaFrame(slot_duration=slot)
        outcomes, traces = _generated_runs(
            topology, seed % 97, noise, seed, frame=frame, max_periods=6
        )
        refusal = outcomes[1]
        if isinstance(refusal, ConfigurationError):
            assert slot < DELAY * 1.5
            assert "propagation delay" in str(refusal)
            assert LEGACY_REQUEST in str(refusal)
        else:
            assert slot > DELAY
            _assert_identical(outcomes, traces)
