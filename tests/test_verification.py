"""Tests for VerifySchedule (Algorithm 1) and the trace generator."""

import pytest

from repro.attacker import AttackerSpec, FollowAnyHeard, paper_attacker
from repro.core import Schedule
from repro.das import centralized_das_schedule
from repro.errors import VerificationError
from repro.topology import GridTopology, LineTopology, Topology
from repro.verification import (
    audible_senders,
    generate_attacker_traces,
    is_slp_aware_das,
    lowest_slot_neighbours,
    minimum_capture_period,
    valid_steps,
    verify_schedule,
)


def line_schedule(line: LineTopology) -> Schedule:
    """Slots ascend toward the sink: the attacker descends to the source."""
    n = line.length
    slots = {i: i + 1 for i in range(n)}
    parents = {i: i + 1 for i in range(n - 1)}
    parents[n - 1] = None
    return Schedule(slots, parents, sink=n - 1)


class TestHelpers:
    def test_audible_excludes_sink(self, line5, line5_schedule):
        assert line5.sink not in audible_senders(line5, line5_schedule, 3)

    def test_lowest_slot_neighbours_order(self, line5):
        s = line_schedule(line5)
        heard = lowest_slot_neighbours(line5, s, 2, r=2)
        assert [h.sender for h in heard] == [1, 3]
        assert heard[0].slot == 2

    def test_r_truncates(self, grid5, grid5_schedule):
        heard = lowest_slot_neighbours(grid5, grid5_schedule, grid5.sink, r=1)
        assert len(heard) == 1


class TestVerifyOnLine:
    def test_line_gradient_captures(self, line5):
        """On a line, the slot gradient leads straight to the source."""
        s = line_schedule(line5)
        result = verify_schedule(line5, s, safety_period=10)
        assert not result.slp_aware
        assert result.counterexample == (4, 3, 2, 1, 0)
        assert result.periods == 4  # one downhill move per period

    def test_tight_safety_period_prevents_capture(self, line5):
        s = line_schedule(line5)
        result = verify_schedule(line5, s, safety_period=3)
        assert result.slp_aware
        assert result.counterexample is None
        assert result.periods == 3

    def test_reversed_gradient_never_captures(self, line5):
        """Slots descending toward the sink repel the attacker."""
        slots = {0: 5, 1: 4, 2: 3, 3: 2, 4: 9}
        s = Schedule(slots, {}, sink=4)
        result = verify_schedule(line5, s, safety_period=50)
        assert result.slp_aware

    def test_start_equal_source_is_immediate_capture(self, line5):
        s = line_schedule(line5)
        result = verify_schedule(line5, s, safety_period=5, start=line5.source)
        assert not result.slp_aware
        assert result.periods == 0
        assert result.counterexample == (0,)


class TestVerifyValidation:
    def test_negative_safety_rejected(self, line5):
        with pytest.raises(VerificationError, match="cannot be negative"):
            verify_schedule(line5, line_schedule(line5), safety_period=-1)

    def test_unknown_source_rejected(self, line5):
        with pytest.raises(VerificationError, match="source"):
            verify_schedule(line5, line_schedule(line5), 5, source=99)

    def test_unknown_start_rejected(self, line5):
        with pytest.raises(VerificationError, match="start"):
            verify_schedule(line5, line_schedule(line5), 5, start=99)

    def test_partial_schedule_rejected(self, line5):
        partial = Schedule({0: 1, 4: 9}, {}, sink=4)
        with pytest.raises(VerificationError, match="does not cover"):
            verify_schedule(line5, partial, 5)


class TestAttackerParameters:
    def test_weaker_decision_widens_reachability(self, grid5):
        """FollowAnyHeard with R=2 can capture schedules that defeat the
        deterministic first-heard attacker."""
        captured_first = captured_any = 0
        for seed in range(12):
            s = centralized_das_schedule(grid5, seed=seed)
            strict = verify_schedule(grid5, s, 10)
            loose = verify_schedule(
                grid5,
                s,
                10,
                attacker=AttackerSpec(
                    messages_per_move=2, decision=FollowAnyHeard()
                ),
            )
            captured_first += not strict.slp_aware
            captured_any += not loose.slp_aware
        assert captured_any >= captured_first
        assert captured_any > 0

    def test_m2_allows_uphill_detour(self):
        """With M=2 the attacker may take one uphill step per period."""
        # 0(src) - 1 - 2 - 3(sink), with a spur 4 attached to 2.
        topo = Topology.from_edges(
            [(0, 1), (1, 2), (2, 3), (2, 4)], sink=3, source=0
        )
        # 4 has the lowest slot near 2: first-heard goes to 4 (a trap).
        s = Schedule(
            {0: 3, 1: 2, 2: 5, 4: 1, 3: 9},
            {0: 1, 1: 2, 2: 3, 4: 2, 3: None},
            sink=3,
        )
        m1 = verify_schedule(topo, s, 10)
        assert m1.slp_aware  # stuck bouncing at the spur
        m2 = verify_schedule(
            topo,
            s,
            10,
            attacker=AttackerSpec(
                messages_per_move=2,
                moves_per_period=2,
                decision=FollowAnyHeard(),
            ),
        )
        assert not m2.slp_aware  # can escape 4 via the uphill move to 1


class TestMinimumCapture:
    def test_line_capture_period(self, line5):
        assert minimum_capture_period(line5, line_schedule(line5)) == 4

    def test_uncapturable_returns_none(self, line5):
        slots = {0: 5, 1: 4, 2: 3, 3: 2, 4: 9}
        s = Schedule(slots, {}, sink=4)
        assert minimum_capture_period(line5, s) is None


class TestSlpAwareDas:
    def test_definition5_on_line(self, line5):
        baseline = line_schedule(line5)
        # Swap the gradient: decoy everything away from the source.
        protected = Schedule({0: 5, 1: 4, 2: 3, 3: 2, 4: 9}, {}, sink=4)
        # `protected` is not a weak DAS (0 has no later outlet), so
        # Definition 5 condition 1 fails even though capture improves.
        assert not is_slp_aware_das(line5, protected, baseline)

    def test_refined_grid_schedules_mostly_satisfy_definition5(self):
        """Refinement raises capture time in most capturable cases.

        Not every seed improves — when Phase 2 lands next to the source
        the decoy has nowhere useful to go (exactly why the paper
        reports a capture *ratio* rather than zero captures) — but the
        majority must.
        """
        from repro.slp import SlpParameters, build_slp_schedule

        grid = GridTopology(7)
        capturable = improved = 0
        for seed in range(20):
            base = centralized_das_schedule(grid, seed=seed)
            if minimum_capture_period(grid, base) is None:
                continue  # baseline already uncapturable; Def. 5 moot
            build = build_slp_schedule(
                grid, SlpParameters(search_distance=2), seed=seed, baseline=base
            )
            capturable += 1
            improved += is_slp_aware_das(grid, build.schedule, base)
        assert capturable > 0
        assert improved / capturable >= 0.5


def verify_from_every_start(topology, schedule, safety_period):
    """``VerifySchedule`` verdicts keyed by every non-source start."""
    return {
        start: verify_schedule(topology, schedule, safety_period, start=start)
        for start in topology.nodes
        if start != topology.source
    }


class TestAllStarts:
    def test_every_non_source_start_verified(self, line5):
        s = line_schedule(line5)
        results = verify_from_every_start(line5, s, safety_period=10)
        assert set(results) == set(line5.nodes) - {line5.source}
        # The gradient pulls every start toward the source on a line.
        assert all(not r.slp_aware for r in results.values())

    def test_adjacent_start_is_fast_capture(self, line5):
        s = line_schedule(line5)
        results = verify_from_every_start(line5, s, safety_period=10)
        assert results[1].periods == 1

    def test_safe_schedule_safe_from_everywhere(self, line5):
        # Reversed gradient: descent leads to the sink side, never node 0.
        s = Schedule({0: 5, 1: 4, 2: 3, 3: 2, 4: 9}, {}, sink=4)
        results = verify_from_every_start(line5, s, safety_period=20)
        # Node 1 is adjacent to the source, but the gradient points away;
        # its first-heard neighbour is never node 0... except node 1
        # itself hears node 0 (slot 5) only after node 2 (slot 3).
        assert all(r.slp_aware for r in results.values())


class TestTraceGeneration:
    def test_traces_start_at_s0_and_are_paths(self, line5):
        s = line_schedule(line5)
        traces = list(
            generate_attacker_traces(
                line5, s, paper_attacker(), start=4, max_periods=10
            )
        )
        assert traces  # deterministic attacker: exactly one maximal trace
        for trace in traces:
            assert trace[0] == 4
            for a, b in zip(trace, trace[1:]):
                assert line5.are_linked(a, b)

    def test_deterministic_attacker_has_one_trace(self, line5):
        s = line_schedule(line5)
        traces = list(
            generate_attacker_traces(
                line5, s, paper_attacker(), start=4, max_periods=10
            )
        )
        assert len(traces) == 1
        assert traces[0] == (4, 3, 2, 1, 0)

    def test_nondeterministic_attacker_branches(self, grid5, grid5_schedule):
        spec = AttackerSpec(messages_per_move=2, decision=FollowAnyHeard())
        traces = list(
            generate_attacker_traces(
                grid5,
                grid5_schedule,
                spec,
                start=grid5.sink,
                max_periods=3,
                max_traces=50,
            )
        )
        assert len(traces) > 1

    def test_max_traces_bound(self, grid5, grid5_schedule):
        spec = AttackerSpec(messages_per_move=2, decision=FollowAnyHeard())
        traces = list(
            generate_attacker_traces(
                grid5,
                grid5_schedule,
                spec,
                start=grid5.sink,
                max_periods=4,
                max_traces=5,
            )
        )
        assert len(traces) <= 5

    def test_valid_steps_period_accounting(self, line5):
        s = line_schedule(line5)
        # From the sink (slot 5), moving to node 3 (slot 4) is downhill.
        steps = list(
            valid_steps(line5, s, paper_attacker(), line5.sink, 0, 0, ())
        )
        assert len(steps) == 1
        assert steps[0].destination == 3
        assert steps[0].new_period == 1
        assert steps[0].new_moves == 1

    def test_verifier_agrees_with_trace_enumeration(self, grid5):
        """The BFS verifier and the literal trace enumeration must agree
        on capture/no-capture for the deterministic attacker."""
        for seed in range(8):
            s = centralized_das_schedule(grid5, seed=seed)
            result = verify_schedule(grid5, s, 7)
            traces = generate_attacker_traces(
                grid5, s, paper_attacker(), start=grid5.sink, max_periods=7
            )
            trace_capture = any(grid5.source in t for t in traces)
            assert trace_capture == (not result.slp_aware)
