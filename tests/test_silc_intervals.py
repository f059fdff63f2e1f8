"""Unit tests for repro.silc.intervals."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.silc.intervals import DistanceInterval

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

    def test_exact_factory(self):
        iv = DistanceInterval.exact(5.0)
        assert iv.is_exact and iv.lo == 5.0

    def test_unbounded_factory(self):
        iv = DistanceInterval.unbounded(2.0)
        assert iv.hi == math.inf and iv.lo == 2.0


class TestPredicates:
    def test_width(self):
        assert DistanceInterval(1.0, 3.5).width == 2.5

    def test_contains(self):
        iv = DistanceInterval(1.0, 2.0)
        assert iv.contains(1.0) and iv.contains(2.0) and iv.contains(1.5)
        assert not iv.contains(0.99) and not iv.contains(2.01)

    def test_collision_detection(self):
        a = DistanceInterval(1.0, 3.0)
        assert a.intersects(DistanceInterval(2.0, 4.0))
        assert a.intersects(DistanceInterval(3.0, 5.0))  # touching
        assert not a.intersects(DistanceInterval(3.1, 5.0))

    def test_strictly_before(self):
        assert DistanceInterval(1, 2).strictly_before(DistanceInterval(2, 3))
        assert not DistanceInterval(1, 2.5).strictly_before(DistanceInterval(2, 3))


class TestArithmetic:
    def test_shifted(self):
        iv = DistanceInterval(1.0, 2.0).shifted(3.0)
        assert (iv.lo, iv.hi) == (4.0, 5.0)

    def test_shifted_clamps_at_zero(self):
        iv = DistanceInterval(1.0, 2.0).shifted(-1.5)
        assert iv.lo == 0.0
        assert iv.hi == 0.5

    def test_intersection(self):
        a = DistanceInterval(1.0, 5.0)
        b = DistanceInterval(3.0, 8.0)
        assert a.intersection(b) == DistanceInterval(3.0, 5.0)

    def test_intersection_of_disjoint_collapses(self):
        a = DistanceInterval(1.0, 2.0)
        b = DistanceInterval(3.0, 4.0)
        mid = a.intersection(b)
        assert mid.is_exact
        assert 2.0 <= mid.lo <= 3.0

    def test_union_min(self):
        a = DistanceInterval(2.0, 6.0)
        b = DistanceInterval(3.0, 4.0)
        assert a.union_min(b) == DistanceInterval(2.0, 4.0)


class TestProperties:
    @given(intervals(), intervals())
    def test_collision_symmetry(self, a, b):
        assert a.intersects(b) == b.intersects(a)

    @given(intervals(), intervals())
    def test_intersection_within_both(self, a, b):
        if a.intersects(b):
            i = a.intersection(b)
            assert a.lo <= i.lo and i.hi <= a.hi
            assert b.lo <= i.lo and i.hi <= b.hi

    @given(intervals(), intervals(), bound)
    def test_union_min_contains_minimum(self, a, b, x):
        """For any da in a, db in b: min(da, db) in union_min(a, b)."""
        da = min(max(x, a.lo), a.hi)
        db = min(max(x, b.lo), b.hi)
        m = a.union_min(b)
        assert m.lo <= min(da, db) <= m.hi

    @given(intervals(), st.floats(0, 1e6, allow_nan=False))
    def test_shift_preserves_width(self, iv, off):
        # Each shifted bound rounds independently, so the width can
        # drift by a few ulps of the shifted magnitude -- the tolerance
        # must scale with hi + off, not with the width itself.
        ulp = math.ulp(max(iv.hi + off, 1.0))
        assert iv.shifted(off).width == pytest.approx(
            iv.width, rel=1e-9, abs=max(1e-9, 4 * ulp)
        )
