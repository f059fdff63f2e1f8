"""Unit tests for repro.geometry.rect."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import Point
from repro.geometry.rect import Rect

coord = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False)


@st.composite
def rects(draw):
    x1, x2 = sorted((draw(coord), draw(coord)))
    y1, y2 = sorted((draw(coord), draw(coord)))
    return Rect(x1, y1, x2, y2)


@st.composite
def points(draw):
    return Point(draw(coord), draw(coord))


class TestRectBasics:
    def test_degenerate_rect_rejected(self):
        with pytest.raises(ValueError):
            Rect(1, 0, 0, 1)
        with pytest.raises(ValueError):
            Rect(0, 1, 1, 0)

    def test_zero_area_rect_allowed(self):
        r = Rect(1, 2, 1, 2)
        assert r.width == 0 and r.height == 0

    def test_dimensions(self):
        r = Rect(0, 0, 4, 2)
        assert r.width == 4
        assert r.height == 2
        assert r.center == Point(2, 1)

    def test_corners_order(self):
        r = Rect(0, 0, 1, 2)
        assert r.corners() == (
            Point(0, 0),
            Point(1, 0),
            Point(1, 2),
            Point(0, 2),
        )

    def test_contains_point_boundary_inclusive(self):
        r = Rect(0, 0, 1, 1)
        assert r.contains_point(Point(0, 0))
        assert r.contains_point(Point(1, 1))
        assert not r.contains_point(Point(1.0001, 0.5))

    def test_contains_rect(self):
        outer = Rect(0, 0, 10, 10)
        assert outer.contains_rect(Rect(1, 1, 9, 9))
        assert outer.contains_rect(outer)
        assert not Rect(1, 1, 9, 9).contains_rect(outer)

    def test_intersection_and_union(self):
        a = Rect(0, 0, 2, 2)
        b = Rect(1, 1, 3, 3)
        assert a.intersection(b) == Rect(1, 1, 2, 2)
        assert a.union(b) == Rect(0, 0, 3, 3)

    def test_disjoint_intersection_is_none(self):
        assert Rect(0, 0, 1, 1).intersection(Rect(2, 2, 3, 3)) is None

    def test_touching_rects_intersect(self):
        assert Rect(0, 0, 1, 1).intersects(Rect(1, 0, 2, 1))

    def test_quadrants_partition(self):
        r = Rect(0, 0, 4, 4)
        sw, se, nw, ne = r.quadrants()
        assert sw == Rect(0, 0, 2, 2)
        assert se == Rect(2, 0, 4, 2)
        assert nw == Rect(0, 2, 2, 4)
        assert ne == Rect(2, 2, 4, 4)


class TestRectDistances:
    def test_min_distance_inside_is_zero(self):
        assert Rect(0, 0, 2, 2).min_distance_to_point(Point(1, 1)) == 0.0

    def test_min_distance_to_side(self):
        assert Rect(0, 0, 2, 2).min_distance_to_point(Point(5, 1)) == pytest.approx(3.0)

    def test_min_distance_to_corner(self):
        assert Rect(0, 0, 1, 1).min_distance_to_point(Point(4, 5)) == pytest.approx(5.0)

    def test_max_distance_reaches_far_corner(self):
        assert Rect(0, 0, 3, 4).max_distance_to_point(Point(0, 0)) == pytest.approx(5.0)

    def test_rect_to_rect_distance(self):
        assert Rect(0, 0, 1, 1).min_distance_to_rect(Rect(4, 5, 6, 7)) == pytest.approx(5.0)
        assert Rect(0, 0, 2, 2).min_distance_to_rect(Rect(1, 1, 3, 3)) == 0.0


class TestRectProperties:
    @given(rects(), points())
    def test_min_le_max_distance(self, r, p):
        assert r.min_distance_to_point(p) <= r.max_distance_to_point(p) + 1e-9

    @given(rects(), points())
    def test_mindist_lower_bounds_all_corners(self, r, p):
        mind = r.min_distance_to_point(p)
        for c in r.corners():
            assert mind <= p.distance_to(c) + 1e-9

    @given(rects(), points())
    def test_maxdist_upper_bounds_all_corners(self, r, p):
        maxd = r.max_distance_to_point(p)
        for c in r.corners():
            assert maxd >= p.distance_to(c) - 1e-9

    @given(rects())
    def test_quadrants_cover_and_tile(self, r):
        quads = r.quadrants()
        assert sum(q.width * q.height for q in quads) == pytest.approx(
            r.width * r.height, rel=1e-9, abs=1e-9
        )
        for q in quads:
            assert r.contains_rect(q)

    @given(rects(), rects())
    def test_intersection_symmetry(self, a, b):
        assert a.intersects(b) == b.intersects(a)
        ia, ib = a.intersection(b), b.intersection(a)
        assert ia == ib

    @given(rects(), rects())
    def test_union_contains_both(self, a, b):
        u = a.union(b)
        assert u.contains_rect(a) and u.contains_rect(b)
