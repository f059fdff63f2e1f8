"""Unit tests for repro.silc.intervals."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.silc.intervals import MAX_REL_GAP, DistanceInterval, checked_bounds

bound = st.floats(min_value=0, max_value=1e9, allow_nan=False)


@st.composite
def intervals(draw):
    lo = draw(bound)
    hi = draw(st.floats(min_value=lo, max_value=1e9 + 1, allow_nan=False))
    return DistanceInterval(lo, hi)


class TestConstruction:
    def test_valid(self):
        iv = DistanceInterval(1.0, 2.0)
        assert iv.lo == 1.0 and iv.hi == 2.0

    def test_inverted_rejected(self):
        with pytest.raises(ValueError):
            DistanceInterval(2.0, 1.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            DistanceInterval(-1.0, 1.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            DistanceInterval(math.nan, 1.0)


class TestPredicates:
    def test_width(self):
        assert DistanceInterval(1.0, 3.5).width == 2.5

    def test_collision_detection(self):
        a = DistanceInterval(1.0, 3.0)
        assert a.intersects(DistanceInterval(2.0, 4.0))
        assert a.intersects(DistanceInterval(3.0, 5.0))  # touching
        assert not a.intersects(DistanceInterval(3.1, 5.0))


class TestArithmetic:
    def test_intersection(self):
        """Fresh bounds are clamped to the previous ones."""
        assert checked_bounds(3.0, 8.0, 1.0, 5.0) == (3.0, 5.0)
        assert checked_bounds(3.0, 3.0, 1.0, 2.5) == (3.0, 3.0)  # exact: kept

    def test_intersection_of_disjoint_collapses(self):
        """Disjoint by rounding, the bounds collapse to the midpoint; by
        more, one of them excluded the true distance."""
        gap = 0.5 * MAX_REL_GAP * 3.0
        lo, hi = checked_bounds(3.0, 4.0, 1.0, 3.0 - gap)
        assert lo == hi and 3.0 - gap <= lo <= 3.0
        with pytest.raises(ValueError):
            checked_bounds(3.0, 4.0, 1.0, 2.0)


class TestProperties:
    @given(intervals(), intervals())
    def test_collision_symmetry(self, a, b):
        assert a.intersects(b) == b.intersects(a)

    @given(intervals(), intervals())
    def test_intersection_within_both(self, a, b):
        if a.intersects(b):
            lo, hi = checked_bounds(b.lo, b.hi, a.lo, a.hi)
            assert a.lo <= lo <= hi <= a.hi
            assert b.lo <= lo <= hi <= b.hi
