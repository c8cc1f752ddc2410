"""Unit tests for the Schedule object."""

import pytest

from repro.core import Schedule
from repro.errors import ScheduleError


def small_schedule() -> Schedule:
    """Line 0-1-2-3(sink): slots 1, 2, 3, sink 4."""
    return Schedule(
        slots={0: 1, 1: 2, 2: 3, 3: 4},
        parents={0: 1, 1: 2, 2: 3, 3: None},
        sink=3,
    )


class TestConstruction:
    def test_sink_must_have_slot(self):
        with pytest.raises(ScheduleError, match="sink must carry a slot"):
            Schedule({0: 1}, {}, sink=9)

    def test_slots_start_at_one(self):
        with pytest.raises(ScheduleError, match="numbered from 1"):
            Schedule({0: 0, 1: 5}, {}, sink=1)

    def test_slots_must_be_ints(self):
        with pytest.raises(ScheduleError, match="must be an int"):
            Schedule({0: 1.5, 1: 5}, {}, sink=1)

    def test_sink_must_transmit_last(self):
        with pytest.raises(ScheduleError, match="transmit last"):
            Schedule({0: 5, 1: 5}, {}, sink=1)

    def test_parent_must_be_scheduled(self):
        with pytest.raises(ScheduleError, match="unscheduled parent"):
            Schedule({0: 1, 1: 2}, {0: 7}, sink=1)

    def test_parent_of_unscheduled_node_rejected(self):
        with pytest.raises(ScheduleError, match="unscheduled node"):
            Schedule({0: 1, 1: 2}, {5: 0}, sink=1)


class TestAccessors:
    def test_slot_of(self):
        s = small_schedule()
        assert s.slot_of(0) == 1
        assert s.slot_of(3) == 4

    def test_slot_of_unknown(self):
        with pytest.raises(ScheduleError, match="no assigned slot"):
            small_schedule().slot_of(42)

    def test_sink_slot(self):
        assert small_schedule().sink_slot == 4

    def test_senders_exclude_sink(self):
        assert small_schedule().senders == (0, 1, 2)

    def test_parent_and_children(self):
        s = small_schedule()
        assert s.parent_of(0) == 1
        assert s.parent_of(3) is None
        assert s.children_of(1) == (0,)
        assert s.children_of(3) == (2,)

    def test_parent_of_unknown(self):
        with pytest.raises(ScheduleError, match="not scheduled"):
            small_schedule().parent_of(42)

    def test_children_of_unknown(self):
        with pytest.raises(ScheduleError, match="not scheduled"):
            small_schedule().children_of(42)

    def test_container_protocol(self):
        s = small_schedule()
        assert 0 in s and 42 not in s
        assert len(s) == 4
        assert list(s) == [0, 1, 2, 3]

    def test_equality_and_hash(self):
        assert small_schedule() == small_schedule()
        assert hash(small_schedule()) == hash(small_schedule())
        assert small_schedule() != small_schedule().with_slots({0: 2})
        assert small_schedule() != Schedule(
            {0: 1, 1: 2, 2: 3, 3: 4}, {0: 2, 1: 2, 2: 3}, sink=3
        )


class TestSenderSets:
    def test_sender_sets_exclude_sink(self):
        sets = small_schedule().sender_sets()
        assert sets == [{0}, {1}, {2}]

    def test_shared_slot_grouping(self):
        s = Schedule({0: 1, 1: 1, 2: 9}, {}, sink=2)
        assert s.sender_sets() == [{0, 1}]


class TestDerivation:
    def test_with_slots_returns_copy(self):
        s = small_schedule()
        t = s.with_slots({0: 2})
        assert t.slot_of(0) == 2
        assert s.slot_of(0) == 1

    def test_with_slots_unknown_node(self):
        with pytest.raises(ScheduleError, match="unscheduled"):
            small_schedule().with_slots({42: 1})

    def test_with_slots_bulk(self):
        t = small_schedule().with_slots({0: 2, 1: 3})
        assert t.slot_of(0) == 2 and t.slot_of(1) == 3

    def test_compressed_preserves_order_and_equality(self):
        s = Schedule({0: 3, 1: 3, 2: 17, 3: 40, 4: 99}, {}, sink=4)
        c = s.compressed()
        assert c.slot_of(0) == c.slot_of(1) == 1
        assert c.slot_of(2) == 2
        assert c.slot_of(3) == 3
        assert c.slot_of(4) == 4

    def test_covers(self, line5, line5_schedule):
        assert line5_schedule.covers(line5)
