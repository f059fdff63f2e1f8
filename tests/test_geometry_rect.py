"""Unit tests for repro.geometry.rect."""

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


class TestRectDistances:
    def test_min_distance_inside_is_zero(self):
        assert Rect(0, 0, 2, 2).min_distance_to_point(Point(1, 1)) == 0.0

    def test_min_distance_to_side(self):
        assert Rect(0, 0, 2, 2).min_distance_to_point(Point(5, 1)) == pytest.approx(3.0)

    def test_min_distance_to_corner(self):
        assert Rect(0, 0, 1, 1).min_distance_to_point(Point(4, 5)) == pytest.approx(5.0)


class TestRectProperties:
    @given(rects(), points())
    def test_mindist_lower_bounds_all_corners(self, r, p):
        mind = r.min_distance_to_point(p)
        for x in (r.xmin, r.xmax):
            for y in (r.ymin, r.ymax):
                assert mind <= p.distance_to(Point(x, y)) + 1e-9
