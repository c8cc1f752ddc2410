"""Unit tests for node identity and placement primitives."""

import pytest

from repro.topology import Coordinate, Placement


class TestCoordinate:
    def test_euclidean_distance(self):
        a = Coordinate(0.0, 0.0)
        b = Coordinate(3.0, 4.0)
        assert a.distance_to(b) == pytest.approx(5.0)

    def test_distance_is_symmetric(self):
        a = Coordinate(1.5, -2.0)
        b = Coordinate(-3.0, 7.25)
        assert a.distance_to(b) == pytest.approx(b.distance_to(a))

    def test_distance_to_self_is_zero(self):
        a = Coordinate(12.0, 9.0)
        assert a.distance_to(a) == 0.0

    def test_unpacking(self):
        x, y = Coordinate(2.5, -1.0)
        assert (x, y) == (2.5, -1.0)

    def test_equality_and_hash(self):
        assert Coordinate(1.0, 2.0) == Coordinate(1.0, 2.0)
        assert hash(Coordinate(1.0, 2.0)) == hash(Coordinate(1.0, 2.0))
        assert Coordinate(1.0, 2.0) != Coordinate(2.0, 1.0)

    def test_ordering(self):
        assert Coordinate(1.0, 5.0) < Coordinate(2.0, 0.0)

    def test_immutability(self):
        c = Coordinate(0.0, 0.0)
        with pytest.raises(AttributeError):
            c.x = 5.0


class TestPlacement:
    def test_distance_between_placements(self):
        p = Placement(0, Coordinate(0.0, 0.0))
        q = Placement(1, Coordinate(0.0, 4.5))
        assert p.distance_to(q) == pytest.approx(4.5)

    def test_placement_is_hashable(self):
        p = Placement(3, Coordinate(1.0, 1.0))
        assert p in {p}
