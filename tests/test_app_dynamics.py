"""Runtime workload dynamics: source plans, perturbations, and how the
operational harness applies them.

These are the primitives the scenario subsystem lowers onto; they are
tested at the :func:`run_operational_phase` level on small topologies
so failures localise to the runtime, not the sweep machinery.
"""

from __future__ import annotations

import pytest

from repro.app import (
    DutyCycle,
    NodeDeath,
    NodeSleep,
    SourcePlan,
    SourceTracker,
    lower_perturbations,
    run_operational_phase,
)
from repro.attacker import AttackerSpec, FollowFirstHeard
from repro.das import centralized_das_schedule
from repro.errors import ConfigurationError


#: An attacker that needs more messages than any run delivers — it
#: never moves, which makes passive (rotation-onto-attacker) capture
#: and perturbation effects observable in isolation.
def immobile_attacker() -> AttackerSpec:
    return AttackerSpec(
        messages_per_move=10_000, decision=FollowFirstHeard()
    )


class TestSourcePlan:
    def test_single_is_static(self):
        plan = SourcePlan.single(3)
        assert plan.nodes == (3,)
        assert plan.rotation_period is None
        assert plan.active_at(0) == plan.active_at(99) == (3,)

    def test_simultaneous_pool(self):
        plan = SourcePlan(nodes=(1, 5, 9))
        assert plan.active_at(7) == (1, 5, 9)
        assert plan.primary == 1

    def test_rotation_walks_the_pool_in_order(self):
        plan = SourcePlan(nodes=(1, 5, 9), rotation_period=2)
        assert [plan.active_at(p) for p in range(7)] == [
            (1,), (1,), (5,), (5,), (9,), (9,), (1,)
        ]

    def test_tracker_advances(self):
        tracker = SourceTracker(SourcePlan(nodes=(1, 5), rotation_period=1))
        assert tracker.is_source(1) and not tracker.is_source(5)
        tracker.advance(1)
        assert tracker.is_source(5) and not tracker.is_source(1)

    def test_validation_names_field_and_value(self):
        with pytest.raises(ConfigurationError, match=r"SourcePlan\.nodes=\(\)"):
            SourcePlan(nodes=())
        with pytest.raises(
            ConfigurationError, match=r"SourcePlan\.rotation_period=0"
        ):
            SourcePlan(nodes=(1, 2), rotation_period=0)
        with pytest.raises(ConfigurationError, match="at least two pool nodes"):
            SourcePlan(nodes=(1,), rotation_period=3)
        with pytest.raises(ConfigurationError, match="duplicate"):
            SourcePlan(nodes=(1, 1))


class TestPerturbationSpecs:
    def test_node_death_is_permanent(self):
        death = NodeDeath(period=2, nodes=(4, 3))
        assert death.nodes == (3, 4)  # normalised order
        assert list(death.steps(10)) == [(2, "die", (3, 4))]
        assert list(death.steps(2)) == []  # beyond the budget

    def test_node_sleep_wakes(self):
        sleep = NodeSleep(period=1, wake_period=3, nodes=(2,))
        assert list(sleep.steps(10)) == [(1, "sleep", (2,)), (3, "wake", (2,))]
        # Wake beyond the budget is dropped, the sleep still applies.
        assert list(sleep.steps(2)) == [(1, "sleep", (2,))]

    def test_duty_cycle_repeats(self):
        duty = DutyCycle(nodes=(5,), cycle_length=4, sleep_for=2, offset=1)
        assert list(duty.steps(10)) == [
            (1, "sleep", (5,)), (3, "wake", (5,)),
            (5, "sleep", (5,)), (7, "wake", (5,)),
            (9, "sleep", (5,)),
        ]

    def test_lowering_orders_by_period_then_declaration(self):
        steps = lower_perturbations(
            (NodeDeath(period=4, nodes=(1,)), NodeSleep(1, 4, nodes=(2,))), 10
        )
        assert steps == (
            (1, "sleep", (2,)),
            (4, "die", (1,)),
            (4, "wake", (2,)),
        )

    def test_validation_names_field_and_value(self):
        with pytest.raises(ConfigurationError, match=r"NodeDeath\.period=-1"):
            NodeDeath(period=-1, nodes=(1,))
        with pytest.raises(ConfigurationError, match=r"NodeSleep\.wake_period=1"):
            NodeSleep(period=1, wake_period=1, nodes=(1,))
        with pytest.raises(ConfigurationError, match=r"DutyCycle\.sleep_for=3"):
            DutyCycle(nodes=(1,), cycle_length=3, sleep_for=3)
        with pytest.raises(ConfigurationError, match=r"DutyCycle\.nodes=\(\)"):
            DutyCycle(nodes=(), cycle_length=3, sleep_for=1)


class TestMultiSourceRuns:
    def test_default_plan_matches_legacy_single_source(self, grid5):
        schedule = centralized_das_schedule(grid5, seed=0)
        legacy = run_operational_phase(grid5, schedule, seed=0, max_periods=6)
        explicit = run_operational_phase(
            grid5,
            schedule,
            seed=0,
            max_periods=6,
            source_plan=SourcePlan.single(grid5.source),
        )
        assert legacy == explicit
        assert legacy.source_pool == (grid5.source,)

    def test_capture_of_any_simultaneous_source_ends_the_run(self, grid5):
        schedule = centralized_das_schedule(grid5, seed=0)
        # Corners 0 and 4 are both sources; whichever falls is recorded.
        result = run_operational_phase(
            grid5,
            schedule,
            seed=3,
            source_plan=SourcePlan(nodes=(0, 4)),
        )
        assert result.source_pool == (0, 4)
        if result.captured:
            assert result.captured_source in (0, 4)
            assert result.attacker_path[-1] == result.captured_source
        else:
            assert result.captured_source is None

    def test_multi_source_budget_uses_closest_source(self, grid5):
        schedule = centralized_das_schedule(grid5, seed=0)
        near = run_operational_phase(
            grid5, schedule, seed=0, source_plan=SourcePlan(nodes=(0, 11))
        )
        far = run_operational_phase(
            grid5, schedule, seed=0, source_plan=SourcePlan(nodes=(0,))
        )
        # Node 11 is one hop from the sink (12), so the safety budget
        # shrinks to the conservative ceil(1.5 * (1 + 1)) periods.
        assert near.safety_periods < far.safety_periods
        assert near.safety_periods == 3

    def test_rotation_onto_attacker_is_a_passive_capture(self, line5):
        schedule = centralized_das_schedule(line5, seed=0)
        # The attacker sits immobile at the sink-adjacent node 3; the
        # asset rotates 0 -> 2 -> 3 and walks straight into it.
        result = run_operational_phase(
            line5,
            schedule,
            attacker=immobile_attacker(),
            seed=0,
            attacker_start=3,
            max_periods=8,
            source_plan=SourcePlan(nodes=(0, 2, 3), rotation_period=1),
        )
        assert result.captured
        assert result.captured_source == 3
        assert result.capture_period == 2
        assert result.attacker_path == (3,)  # it never moved

    def test_sink_cannot_join_the_pool(self, grid5):
        schedule = centralized_das_schedule(grid5, seed=0)
        with pytest.raises(ConfigurationError, match=r"SourcePlan\.nodes=12"):
            run_operational_phase(
                grid5, schedule, seed=0, source_plan=SourcePlan(nodes=(0, 12))
            )

    def test_unknown_pool_node_rejected(self, grid5):
        schedule = centralized_das_schedule(grid5, seed=0)
        with pytest.raises(ConfigurationError, match=r"SourcePlan\.nodes=99"):
            run_operational_phase(
                grid5, schedule, seed=0, source_plan=SourcePlan(nodes=(0, 99))
            )


class TestPerturbationRuns:
    def test_dead_node_stops_transmitting(self, grid5):
        schedule = centralized_das_schedule(grid5, seed=0)
        healthy = run_operational_phase(
            grid5, schedule, attacker=immobile_attacker(), seed=0, max_periods=6
        )
        churned = run_operational_phase(
            grid5,
            schedule,
            attacker=immobile_attacker(),
            seed=0,
            max_periods=6,
            perturbations=(NodeDeath(period=2, nodes=(6, 7, 8)),),
        )
        # Three nodes mute for 4 of 6 periods: exactly 12 fewer sends.
        assert healthy.messages_sent - churned.messages_sent == 12
        assert churned.aggregation_ratio < healthy.aggregation_ratio

    def test_sleep_then_wake_recovers(self, grid5):
        schedule = centralized_das_schedule(grid5, seed=0)
        slept = run_operational_phase(
            grid5,
            schedule,
            attacker=immobile_attacker(),
            seed=0,
            max_periods=6,
            perturbations=(NodeSleep(period=1, wake_period=2, nodes=(6,)),),
        )
        healthy = run_operational_phase(
            grid5, schedule, attacker=immobile_attacker(), seed=0, max_periods=6
        )
        # One node mute for exactly one period.
        assert healthy.messages_sent - slept.messages_sent == 1

    def test_death_survives_an_overlapping_wake(self, grid5):
        """A wake step from an overlapping sleep schedule must not
        resurrect a node that crashed in between."""
        schedule = centralized_das_schedule(grid5, seed=0)
        overlapped = run_operational_phase(
            grid5,
            schedule,
            attacker=immobile_attacker(),
            seed=0,
            max_periods=6,
            perturbations=(
                NodeSleep(period=1, wake_period=4, nodes=(6,)),
                NodeDeath(period=2, nodes=(6,)),
            ),
        )
        dead_only = run_operational_phase(
            grid5,
            schedule,
            attacker=immobile_attacker(),
            seed=0,
            max_periods=6,
            perturbations=(NodeDeath(period=1, nodes=(6,)),),
        )
        # Node 6 transmits only in period 0 in both runs: the sleep at
        # period 1 blends into the death at period 2, and the wake at
        # period 4 is a no-op on a dead node.
        assert overlapped.messages_sent == dead_only.messages_sent

    def test_perturbing_sink_or_source_rejected(self, grid5):
        schedule = centralized_das_schedule(grid5, seed=0)
        with pytest.raises(ConfigurationError, match=r"NodeDeath\.nodes=12"):
            run_operational_phase(
                grid5,
                schedule,
                seed=0,
                perturbations=(NodeDeath(period=1, nodes=(12,)),),
            )
        with pytest.raises(ConfigurationError, match=r"NodeDeath\.nodes=0"):
            run_operational_phase(
                grid5,
                schedule,
                seed=0,
                perturbations=(NodeDeath(period=1, nodes=(0,)),),
            )

    def test_runs_with_dynamics_stay_seed_deterministic(self, grid5):
        schedule = centralized_das_schedule(grid5, seed=0)
        kwargs = dict(
            seed=5,
            max_periods=8,
            source_plan=SourcePlan(nodes=(0, 4), rotation_period=2),
            perturbations=(
                DutyCycle(nodes=(6, 7), cycle_length=4, sleep_for=1),
                NodeDeath(period=3, nodes=(16,)),
            ),
        )
        first = run_operational_phase(grid5, schedule, **kwargs)
        second = run_operational_phase(grid5, schedule, **kwargs)
        assert first == second
