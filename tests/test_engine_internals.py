"""Unit tests for the kNN engine's internal structures."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query.bestfirst import _KMinDistTracker, _ResultQueue
from repro.query.stats import QueryStats


def dk(q: _ResultQueue, k: int) -> float:
    """The pruning distance, read off ``L`` the way the search loop does."""
    return q.entries[k - 1][0] if len(q.entries) >= k else math.inf


class TestResultQueue:
    def test_dk_before_k_candidates_is_inf(self):
        q = _ResultQueue(QueryStats())
        q.add(1, 5.0)
        assert dk(q, 2) == math.inf

    def test_dk_is_kth_smallest_upper_bound(self):
        q = _ResultQueue(QueryStats())
        for oid, hi in enumerate([7.0, 3.0, 9.0, 5.0]):
            q.add(oid, hi)
        assert dk(q, 1) == 3.0
        assert dk(q, 2) == 5.0
        assert dk(q, 3) == 7.0

    def test_update_moves_entry(self):
        q = _ResultQueue(QueryStats())
        q.add(0, 10.0)
        q.add(1, 20.0)
        q.update(0, 30.0)
        assert dk(q, 1) == 20.0
        assert dk(q, 2) == 30.0

    def test_update_many_entries_moves_the_right_one(self):
        q = _ResultQueue(QueryStats())
        for oid, hi in enumerate([7.0, 3.0, 9.0, 5.0]):
            q.add(oid, hi)
        q.update(1, 8.0)  # 3.0 -> 8.0
        assert dk(q, 1) == 5.0
        assert dk(q, 3) == 8.0
        assert dk(q, 4) == 9.0
        assert len(q.entries) == 4

    def test_operations_are_counted_and_timed(self):
        stats = QueryStats()
        q = _ResultQueue(stats)
        q.add(0, 1.0)
        q.update(0, 2.0)
        assert stats.l_ops == 2  # the loop counts its own reads of Dk
        assert stats.l_time >= 0.0

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=30),
           st.integers(1, 10))
    def test_dk_matches_sorted_reference(self, his, k):
        q = _ResultQueue(QueryStats())
        for oid, hi in enumerate(his):
            q.add(oid, hi)
        expected = sorted(his)[k - 1] if len(his) >= k else math.inf
        assert dk(q, k) == expected


class TestKMinDistTracker:
    def test_needs_k_candidates_or_blocks(self):
        t = _KMinDistTracker(2)
        assert t.value() == math.inf
        t.add(3.0)
        assert t.value() == math.inf  # only one candidate, no blocks
        t.add(5.0)
        assert t.value() == 5.0

    def test_block_bounds_cap_the_estimate(self):
        t = _KMinDistTracker(2)
        t.add(3.0)
        t.add(5.0)
        t.block_pushed(4.0)
        assert t.value() == 4.0  # hidden objects could be at 4.0
        t.block_popped(4.0)
        assert t.value() == 5.0

    def test_fewer_candidates_than_k_uses_block_floor(self):
        t = _KMinDistTracker(3)
        t.add(1.0)
        t.block_pushed(2.0)
        assert t.value() == 2.0

    def test_replace_tracks_refinement(self):
        t = _KMinDistTracker(2)
        t.add(3.0)
        t.add(5.0)
        t.replace(3.0, 4.5)
        assert t.value() == 5.0
        t.replace(5.0, 6.0)
        assert t.value() == 6.0

    def test_duplicate_bounds_handled(self):
        t = _KMinDistTracker(1)
        t.block_pushed(2.0)
        t.block_pushed(2.0)
        t.block_popped(2.0)
        assert t.value() == 2.0  # one copy remains

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(0, 50, allow_nan=False), min_size=0, max_size=20),
        st.lists(st.floats(0, 50, allow_nan=False), min_size=0, max_size=8),
        st.integers(1, 6),
    )
    def test_value_matches_reference_model(self, lows, blocks, k):
        t = _KMinDistTracker(k)
        for lo in lows:
            t.add(lo)
        for b in blocks:
            t.block_pushed(b)
        min_block = min(blocks) if blocks else math.inf
        if len(lows) < k:
            expected = min_block
        else:
            expected = min(sorted(lows)[k - 1], min_block)
        assert t.value() == expected


class TestQueryStatsMerge:
    def test_merge_sums_counters(self):
        a = QueryStats(refinements=3, max_queue=5, l_time=0.1, elapsed=1.0)
        b = QueryStats(refinements=4, max_queue=2, l_time=0.2, elapsed=2.0)
        m = a.merge(b)
        assert m.refinements == 7
        assert m.max_queue == 7  # summed (callers divide for averages)
        assert m.l_time == pytest.approx(0.3)
        assert m.elapsed == pytest.approx(3.0)

    def test_merge_does_not_mutate_operands(self):
        a = QueryStats(refinements=3)
        b = QueryStats(refinements=4)
        a.merge(b)
        assert a.refinements == 3 and b.refinements == 4
