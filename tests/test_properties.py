"""Property-based tests (hypothesis) on core invariants."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    check_strong_das,
    check_weak_das,
    is_non_colliding,
    safety_period,
)
from repro.das import centralized_das_schedule
from repro.mac import TdmaFrame
from repro.slp import SlpParameters, build_slp_schedule
from repro.topology import GridTopology, LineTopology, RingTopology
from repro.verification import minimum_capture_period, verify_schedule

# Small topology strategy: lines, rings and grids of modest size.
topologies = st.one_of(
    st.integers(min_value=3, max_value=9).map(LineTopology),
    st.integers(min_value=4, max_value=10).map(RingTopology),
    st.integers(min_value=3, max_value=6).map(GridTopology),
)

seeds = st.integers(min_value=0, max_value=2**31 - 1)


class TestGeneratorInvariants:
    @given(topology=topologies, seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_generated_schedule_is_strong_das(self, topology, seed):
        schedule = centralized_das_schedule(topology, seed=seed)
        assert check_strong_das(topology, schedule).ok

    @given(topology=topologies, seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_every_slot_non_colliding(self, topology, seed):
        schedule = centralized_das_schedule(topology, seed=seed)
        assert all(
            is_non_colliding(topology, schedule, n)
            for n in topology.nodes
            if n != topology.sink
        )

    @given(topology=topologies, seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_slots_descend_along_tree_paths(self, topology, seed):
        """Walking child -> parent, slots strictly increase (convergecast
        order: children before parents)."""
        schedule = centralized_das_schedule(topology, seed=seed)
        for node in topology.nodes:
            parent = schedule.parent_of(node)
            if parent is not None:
                assert schedule.slot_of(node) < schedule.slot_of(parent)

    @given(topology=topologies, seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_compression_preserves_das_validity(self, topology, seed):
        schedule = centralized_das_schedule(topology, seed=seed)
        assert check_strong_das(topology, schedule.compressed()).ok


class TestRefinementInvariants:
    @given(
        size=st.integers(min_value=5, max_value=8),
        seed=seeds,
        sd=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=25, deadline=None)
    def test_refinement_preserves_weak_das(self, size, seed, sd):
        grid = GridTopology(size)
        build = build_slp_schedule(grid, SlpParameters(sd), seed=seed)
        assert check_weak_das(grid, build.schedule).ok

    @given(size=st.integers(min_value=5, max_value=8), seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_refinement_never_touches_parents(self, size, seed):
        grid = GridTopology(size)
        build = build_slp_schedule(grid, SlpParameters(2), seed=seed)
        assert build.schedule.parents() == build.baseline.parents()

    @given(size=st.integers(min_value=5, max_value=8), seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_refined_slots_positive(self, size, seed):
        grid = GridTopology(size)
        build = build_slp_schedule(grid, SlpParameters(2), seed=seed)
        assert min(build.schedule.slots().values()) >= 1


class TestVerifierInvariants:
    @given(topology=topologies, seed=seeds, delta=st.integers(0, 20))
    @settings(max_examples=30, deadline=None)
    def test_counterexample_is_valid_witness(self, topology, seed, delta):
        """Any counterexample must be a connected path from the sink to
        the source, no longer than the state space allows."""
        schedule = centralized_das_schedule(topology, seed=seed)
        result = verify_schedule(topology, schedule, delta)
        if result.slp_aware:
            assert result.counterexample is None
            assert result.periods == delta
        else:
            pc = result.counterexample
            assert pc[0] == topology.sink
            assert pc[-1] == topology.source
            for a, b in zip(pc, pc[1:]):
                assert topology.are_linked(a, b)
            assert result.periods <= delta

    @given(topology=topologies, seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_safety_period(self, topology, seed):
        """If the attacker captures within δ, it captures within δ+1."""
        schedule = centralized_das_schedule(topology, seed=seed)
        small = verify_schedule(topology, schedule, 5)
        large = verify_schedule(topology, schedule, 6)
        if not small.slp_aware:
            assert not large.slp_aware

    @given(topology=topologies, seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_capture_period_at_least_distance(self, topology, seed):
        """The attacker moves one hop per period at best, so capture
        cannot beat the sink-source hop distance."""
        schedule = centralized_das_schedule(topology, seed=seed)
        period = minimum_capture_period(topology, schedule)
        if period is not None:
            assert period >= topology.source_sink_distance()


def _position_of(frame, time):
    """``(period, slot-or-None)`` at ``time``: the inverse of
    ``TdmaFrame.slot_start``, written out independently."""
    offset = time % frame.period_length
    if offset < frame.dissemination_duration:
        return int(time // frame.period_length), None
    slot = int((offset - frame.dissemination_duration) // frame.slot_duration) + 1
    return int(time // frame.period_length), min(slot, frame.num_slots)


class TestFrameInvariants:
    @given(
        num_slots=st.integers(1, 200),
        slot_ms=st.integers(1, 500),
        diss_ms=st.integers(0, 2000),
        period=st.integers(0, 50),
        slot=st.integers(1, 200),
    )
    @settings(max_examples=60, deadline=None)
    def test_slot_start_roundtrip(self, num_slots, slot_ms, diss_ms, period, slot):
        if slot > num_slots:
            slot = num_slots
        frame = TdmaFrame(
            num_slots=num_slots,
            slot_duration=slot_ms / 1000.0,
            dissemination_duration=diss_ms / 1000.0,
        )
        t = frame.slot_start(period, slot)
        got_period, got_slot = _position_of(frame, t + 1e-9)
        assert got_period == period
        assert got_slot == slot

    @given(
        length=st.integers(2, 30),
        period_len=st.floats(0.1, 100.0, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_safety_period_scales_with_capture_time(self, length, period_len):
        line = LineTopology(length)
        sp = safety_period(line, period_len)
        assert sp.seconds > sp.capture_time_seconds
        assert sp.periods >= math.ceil(line.source_sink_distance() + 1)


class TestScheduleInvariants:
    @given(topology=topologies, seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_sender_sets_partition_non_sink_nodes(self, topology, seed):
        schedule = centralized_das_schedule(topology, seed=seed)
        sets = schedule.sender_sets()
        union = set().union(*sets) if sets else set()
        assert union == set(topology.nodes) - {topology.sink}
        total = sum(len(s) for s in sets)
        assert total == len(union)  # pairwise disjoint (condition 1)
