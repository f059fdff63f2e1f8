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

    def test_lerp_endpoints(self):
        a, b = Point(1, 1), Point(5, 9)
        assert a.lerp(b, 0.0) == a
        assert a.lerp(b, 1.0) == b

    def test_lerp_midpoint_matches_midpoint(self):
        a, b = Point(1, 1), Point(5, 9)
        assert a.lerp(b, 0.5) == Point(3, 5)

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

    @given(finite, finite, finite, finite, st.floats(0, 1))
    def test_lerp_stays_on_segment(self, ax, ay, bx, by, t):
        a, b = Point(ax, ay), Point(bx, by)
        p = a.lerp(b, t)
        total = a.distance_to(b)
        assert a.distance_to(p) + p.distance_to(b) == pytest.approx(
            total, abs=max(1e-6, total * 1e-9)
        )
