"""Unit tests for the Definition 1-3 checkers."""

from repro.core import (
    COLLISION,
    MISSING_SLOT,
    ORDERING,
    Schedule,
    check_strong_das,
    check_weak_das,
    is_non_colliding,
    is_strong_das,
    is_weak_das,
)
from repro.topology import LineTopology, Topology


def line_schedule(line: LineTopology, slots=None) -> Schedule:
    """Valid line schedule by default: slots ascend toward the sink."""
    n = line.length
    if slots is None:
        slots = {i: i + 1 for i in range(n)}
    parents = {i: i + 1 for i in range(n - 1)}
    parents[n - 1] = None
    return Schedule(slots, parents, sink=n - 1)


class TestNonColliding:
    def test_valid_line_is_non_colliding(self, line5):
        s = line_schedule(line5)
        assert all(is_non_colliding(line5, s, n) for n in line5.nodes)

    def test_detects_two_hop_collision(self, line5):
        s = line_schedule(line5, slots={0: 1, 1: 2, 2: 1, 3: 4, 4: 9})
        assert not is_non_colliding(line5, s, 0)
        assert not is_non_colliding(line5, s, 2)
        assert is_non_colliding(line5, s, 3)

    def test_three_hop_reuse_is_fine(self):
        line = LineTopology(6)
        slots = {0: 1, 1: 2, 2: 3, 3: 1, 4: 5, 5: 9}
        s = line_schedule(line, slots={**slots})
        # nodes 0 and 3 share slot 1 but are 3 hops apart.
        assert is_non_colliding(line, s, 0)
        assert is_non_colliding(line, s, 3)


class TestStrongDas:
    def test_valid_line(self, line5):
        assert is_strong_das(line5, line_schedule(line5))

    def test_missing_slot_detected(self, line5):
        s = Schedule({0: 1, 1: 2, 2: 3, 4: 9}, {}, sink=4)  # node 3 missing
        result = check_strong_das(line5, s)
        assert not result.ok
        kinds = {v.kind for v in result.violations}
        assert kinds == {MISSING_SLOT}
        assert result.violations[0].nodes == (3,)

    def test_ordering_violation_detected(self, line5):
        # Node 1 transmits after node 2, but 2 is on 1's shortest path.
        s = line_schedule(line5, slots={0: 1, 1: 5, 2: 3, 3: 7, 4: 9})
        result = check_strong_das(line5, s)
        assert result.violations_of_kind(ORDERING)
        nodes = {v.nodes for v in result.violations_of_kind(ORDERING)}
        assert (1, 2) in nodes

    def test_collision_violation_detected(self, line5):
        s = line_schedule(line5, slots={0: 2, 1: 2, 2: 3, 3: 4, 4: 9})
        result = check_strong_das(line5, s)
        assert result.violations_of_kind(COLLISION)

    def test_sink_neighbour_exempt(self, line5):
        # Node 3 is next to the sink; the m = S case is unconstrained, so
        # a huge slot on 3 (still below sink) is fine.
        s = line_schedule(line5, slots={0: 1, 1: 2, 2: 3, 3: 8, 4: 9})
        assert is_strong_das(line5, s)

    def test_summary_mentions_kind(self, line5):
        s = line_schedule(line5, slots={0: 2, 1: 2, 2: 3, 3: 4, 4: 9})
        assert "collision" in check_strong_das(line5, s).summary()

    def test_ok_summary(self, line5):
        assert "valid strong DAS" in check_strong_das(line5, line_schedule(line5)).summary()


class TestWeakDas:
    def test_strong_implies_weak(self, grid5, grid5_schedule):
        assert is_strong_das(grid5, grid5_schedule)
        assert is_weak_das(grid5, grid5_schedule)

    def test_weak_but_not_strong(self, grid5):
        """Lowering one toward-sink neighbour's slot breaks strong only."""
        s = grid5_schedule = None
        from repro.das import centralized_das_schedule

        base = centralized_das_schedule(grid5, jitter=False)
        # Node 0 (corner) has toward-sink neighbours 1 and 5; its parent
        # is one of them.  Drop the *non-parent* one below node 0.
        parent = base.parent_of(0)
        other = next(m for m in grid5.shortest_path_children(0) if m != parent)
        crafted = base.with_slots({other: 1, 0: 2})
        # Repair any accidental collisions introduced by the crafting:
        # keep only the ordering aspect under test.
        strong = check_strong_das(grid5, crafted)
        weak = check_weak_das(grid5, crafted)
        assert strong.violations_of_kind(ORDERING)
        assert not weak.violations_of_kind(ORDERING)

    def test_dead_end_node_fails_weak(self, line5):
        # Node 0's only route to the sink is via node 1; if 1 transmits
        # before 0, node 0 has no outlet.
        s = line_schedule(line5, slots={0: 3, 1: 2, 2: 4, 3: 5, 4: 9})
        result = check_weak_das(line5, s)
        assert result.violations_of_kind(ORDERING)
        assert (0,) in {v.nodes for v in result.violations_of_kind(ORDERING)}

    def test_alternative_path_satisfies_weak(self):
        # A diamond: 0 can reach the sink via 1 or 2.
        topo = Topology.from_edges(
            [(0, 1), (0, 2), (1, 3), (2, 3)], sink=3, source=0
        )
        # 1 transmits before 0 (bad direction) but 2 transmits after.
        s = Schedule(
            {0: 2, 1: 1, 2: 4, 3: 9},
            {0: 2, 1: 3, 2: 3, 3: None},
            sink=3,
        )
        assert check_weak_das(topo, s).ok

    def test_weak_missing_slot(self, line5):
        s = Schedule({0: 1, 1: 2, 2: 3, 4: 9}, {}, sink=4)
        assert check_weak_das(line5, s).violations_of_kind(MISSING_SLOT)


class TestCheckResult:
    def test_bool_conversion(self, line5):
        assert bool(check_strong_das(line5, line_schedule(line5)))

    def test_violation_str(self, line5):
        s = line_schedule(line5, slots={0: 2, 1: 3, 2: 2, 3: 4, 4: 9})
        result = check_strong_das(line5, s)
        v = result.violations_of_kind(COLLISION)[0]
        assert "collision" in str(v)
        assert v.nodes == (0, 2)
