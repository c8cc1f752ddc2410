"""Differential tests for the operational-phase fast kernel.

The contract: there are two engines, and a ``"fast"`` run — on the
table-driven lane, or sent to the legacy fallback when the lane cannot
compile it — is *bit-identical* to the legacy event-heap engine: same
:class:`OperationalResult`, same trace counters, same retained records,
same RNG consumption, for every workload the repository can express.
Every registered scenario is driven through both kernels here; the
serial/parallel identity of the fast kernel is additionally covered by
``tests/test_scenarios.py`` (the fast kernel is the default, so those
sweeps already exercise it).
"""

from __future__ import annotations


import pytest

from repro.app import (
    FAST_KERNEL,
    LEGACY_KERNEL,
    DutyCycle,
    NodeDeath,
    NodeSleep,
    SourcePlan,
    build_slot_timeline,
    fast_kernel_supported,
    fast_lane_compilable,
    run_operational_phase,
)
from repro.das import centralized_das_schedule
from repro.errors import ConfigurationError
from repro.experiments import ExperimentRunner
from repro.mac import TdmaFrame
from repro.scenarios import ScenarioRunner, get_scenario, scenario_names
from repro.simulator import CasinoLabNoise

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
        """With every kind retained, the record streams match too (the
        fast lane declines retained per-message traces, so the fast
        request runs on the legacy fallback)."""
        schedule = centralized_das_schedule(grid7, seed=3)
        outcomes, traces = _run_all(
            grid7,
            schedule,
            seed=3,
            noise=CasinoLabNoise(),
            trace_kinds=None,
        )
        _assert_identical(outcomes, traces)
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

    def test_a_detach_recompiles_only_the_neighbours_lanes(self, grid7):
        """A toggled node changes only its neighbours' fan-outs, so the
        perturbation boundary recompiles exactly their lane entries."""
        schedule = centralized_das_schedule(grid7, seed=5)
        victim = self._grid_nodes(grid7)[10]
        noise = CasinoLabNoise()
        compiled = []
        real = noise.compile_lane

        def spy(sender, receivers, targets):
            compiled.append(sender)
            return real(sender, receivers, targets)

        noise.compile_lane = spy
        outcomes, traces = _run_all(
            grid7,
            schedule,
            seed=1,
            noise=noise,
            perturbations=(NodeDeath(period=2, nodes=(victim,)),),
        )
        _assert_identical(outcomes, traces)
        assert outcomes[0].periods_run > 2  # the detach really happened
        senders = sorted(n for n in grid7.nodes if n != grid7.sink)
        first, after = compiled[: len(senders)], compiled[len(senders) :]
        assert sorted(first) == senders
        assert after == [n for n in grid7.neighbours(victim) if n != grid7.sink]

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


class TestFastLaneCompilability:
    def _setup(self, topology, schedule, **kwargs):
        """A simulator + agent + slot timeline mirroring the runtime
        wiring, for direct compile-gate checks."""
        from repro.app.dynamics import SourceTracker
        from repro.attacker import EavesdropperAgent, paper_attacker
        from repro.simulator import Simulator

        compressed = schedule.compressed()
        sim = Simulator(topology, seed=0, trace_kinds=kwargs.get("trace_kinds"))
        tracker = SourceTracker(SourcePlan.single(topology.source))
        agent = EavesdropperAgent(
            sim,
            paper_attacker(),
            start=topology.sink,
            source=topology.source,
            slot_lookup=compressed.slot_of,
            capture_test=tracker.is_source,
        )
        sim.radio.attach_eavesdropper(agent)
        slots = compressed.slots()
        del slots[topology.sink]
        timeline = build_slot_timeline(TdmaFrame(), slots)
        return sim, timeline

    def test_standard_run_is_compilable(self, grid5, grid5_schedule):
        from repro.app import OPERATIONAL_TRACE_KINDS

        sim, timeline = self._setup(
            grid5, grid5_schedule, trace_kinds=OPERATIONAL_TRACE_KINDS
        )
        assert fast_lane_compilable(sim, timeline)

    def test_retained_message_trace_is_not_compilable(self, grid5, grid5_schedule):
        sim, timeline = self._setup(grid5, grid5_schedule, trace_kinds=None)
        assert not fast_lane_compilable(sim, timeline)

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

    def test_audible_slot_sharing_is_not_compilable(self, grid5, grid5_schedule):
        """Two adjacent senders in one slot group (impossible under
        Def. 1, but expressible via a hand-built schedule) must force
        the legacy fallback: live-set delivery would skip the emit-time
        snapshot the legacy semantics require."""
        from repro.app import OPERATIONAL_TRACE_KINDS

        slots = grid5_schedule.slots()
        a = grid5.sink
        neighbours = [n for n in grid5.neighbours(a) if n != grid5.sink]
        n1 = neighbours[0]
        n2 = [m for m in grid5.neighbours(n1) if m not in (a, grid5.sink)][0]
        slots[n2] = slots[n1]  # adjacent nodes, same slot
        shared = grid5_schedule.with_slots(slots)
        sim, timeline = self._setup(
            grid5, shared, trace_kinds=OPERATIONAL_TRACE_KINDS
        )
        assert not fast_lane_compilable(sim, timeline)

    @pytest.mark.parametrize("name", sorted(scenario_names()))
    def test_default_run_uses_the_table_lane(self, name, monkeypatch):
        """Every registered scenario's default run engages the lane: a
        silent drop to the legacy fallback would cost several times
        the operational phase's run time."""
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

    def test_non_compilable_run_goes_to_the_legacy_engine(self, grid7):
        """A fast request the lane cannot compile (retained per-message
        trace) runs on the legacy engine — the phase span says so — and
        returns the legacy result."""
        from repro.telemetry import TelemetrySession

        schedule = centralized_das_schedule(grid7, seed=3)
        with TelemetrySession(directory=None) as session:
            fast = run_operational_phase(
                grid7, schedule, seed=3, kernel=FAST_KERNEL, trace_kinds=None
            )
        phases = [
            span
            for span in session.tracer.spans()
            if span.name == "operational.phase"
        ]
        assert [span.attrs["fast"] for span in phases] == [False]
        legacy = run_operational_phase(
            grid7, schedule, seed=3, kernel=LEGACY_KERNEL, trace_kinds=None
        )
        assert fast == legacy


class TestKernelSelection:
    def test_invalid_kernel_rejected(self, grid5, grid5_schedule):
        with pytest.raises(ConfigurationError, match="kernel"):
            run_operational_phase(grid5, grid5_schedule, seed=0, kernel="warp")

    def test_unsupported_frame_falls_back_to_legacy(self, grid5, grid5_schedule):
        """A slot shorter than the propagation delay forces the legacy
        engine; the outcome still matches an explicit legacy run."""
        frame = TdmaFrame(num_slots=200, slot_duration=5e-5)
        assert not fast_kernel_supported(frame, 1e-4)
        legacy = run_operational_phase(
            grid5, grid5_schedule, seed=1, frame=frame, kernel=LEGACY_KERNEL
        )
        fast = run_operational_phase(
            grid5, grid5_schedule, seed=1, frame=frame, kernel=FAST_KERNEL
        )
        assert fast == legacy

    def test_supported_for_paper_frame(self):
        assert fast_kernel_supported(TdmaFrame(), 1e-4)

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
