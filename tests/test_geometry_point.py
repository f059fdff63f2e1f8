"""Unit tests for repro.geometry.point."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import Point
from repro.geometry.point import euclidean

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestPointBasics:
    def test_distance_to_self_is_zero(self):
        p = Point(3.0, 4.0)
        assert p.distance_to(p) == 0.0

    def test_distance_is_euclidean(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == pytest.approx(5.0)

    def test_manhattan(self):
        assert Point(0, 0).manhattan_to(Point(3, 4)) == pytest.approx(7.0)

    def test_midpoint(self):
        m = Point(0, 0).midpoint(Point(2, 6))
        assert (m.x, m.y) == (1.0, 3.0)

    def test_lerp_endpoints(self):
        a, b = Point(1, 1), Point(5, 9)
        assert a.lerp(b, 0.0) == a
        assert a.lerp(b, 1.0) == b

    def test_lerp_midpoint_matches_midpoint(self):
        a, b = Point(1, 1), Point(5, 9)
        assert a.lerp(b, 0.5) == a.midpoint(b)

    def test_translated(self):
        assert Point(1, 2).translated(3, -1) == Point(4, 1)

    def test_as_tuple(self):
        assert Point(1.5, -2.5).as_tuple() == (1.5, -2.5)

    def test_points_are_hashable_and_equal_by_value(self):
        assert len({Point(1, 2), Point(1, 2), Point(2, 1)}) == 2

    def test_points_are_immutable(self):
        p = Point(0, 0)
        with pytest.raises(AttributeError):
            p.x = 5.0

    def test_free_function_matches_method(self):
        assert euclidean(0, 0, 3, 4) == Point(0, 0).distance_to(Point(3, 4))


class TestPointProperties:
    @given(finite, finite, finite, finite)
    def test_distance_symmetry(self, ax, ay, bx, by):
        a, b = Point(ax, ay), Point(bx, by)
        assert a.distance_to(b) == pytest.approx(b.distance_to(a))

    @given(finite, finite, finite, finite, finite, finite)
    def test_triangle_inequality(self, ax, ay, bx, by, cx, cy):
        a, b, c = Point(ax, ay), Point(bx, by), Point(cx, cy)
        assert a.distance_to(c) <= a.distance_to(b) + b.distance_to(c) + 1e-6

    @given(finite, finite, finite, finite)
    def test_manhattan_dominates_euclidean(self, ax, ay, bx, by):
        a, b = Point(ax, ay), Point(bx, by)
        assert a.manhattan_to(b) >= a.distance_to(b) - 1e-9

    @given(finite, finite, finite, finite, st.floats(0, 1))
    def test_lerp_stays_on_segment(self, ax, ay, bx, by, t):
        a, b = Point(ax, ay), Point(bx, by)
        p = a.lerp(b, t)
        total = a.distance_to(b)
        assert a.distance_to(p) + p.distance_to(b) == pytest.approx(
            total, abs=max(1e-6, total * 1e-9)
        )
