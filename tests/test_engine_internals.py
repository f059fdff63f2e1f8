"""Unit tests for the kNN engine's internal structures."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query import bestfirst
from repro.query.bestfirst import _KMinDistTracker, best_first_knn
from repro.query.stats import QueryStats
from repro.silc.refinement import RefinableDistance


@pytest.fixture()
def knn_and_l(monkeypatch, small_index, small_object_index):
    """``run(query, k) -> (result, L, writes)`` for the ``knn`` variant.

    ``L`` -- the paper's result queue, ``(hi, seq, oid)`` sorted by
    upper bound -- is two locals of ``best_first_knn``; the only list
    that variant hands to ``insort`` is ``L``, so a recording ``insort``
    sees it, and every write to it.
    """
    real_insort = bestfirst.insort

    def run(query, k, **kwargs):
        seen = []

        def insort(entries, entry):
            seen.append(entries)
            real_insort(entries, entry)

        monkeypatch.setattr(bestfirst, "insort", insort)
        result = best_first_knn(
            small_index, small_object_index, query, k, variant="knn", **kwargs
        )
        assert all(entries is seen[0] for entries in seen)
        return result, seen[0], len(seen)

    return run


class TestResultQueue:
    def test_dk_before_k_candidates_is_inf(
        self, knn_and_l, small_index, small_object_index
    ):
        """Fewer than k candidates: Dk is infinite and prunes nothing,
        so ``knn`` pushes exactly what ``inn`` pushes and reports all."""
        total = len(small_object_index.objects)
        result, entries, _ = knn_and_l(12, total + 5)
        assert len(result.neighbors) == len(entries) == total
        unpruned = best_first_knn(
            small_index, small_object_index, 12, total + 5, variant="inn"
        )
        assert result.stats.queue_pushes == unpruned.stats.queue_pushes

    def test_dk_is_kth_smallest_upper_bound(self, knn_and_l):
        """At termination the k reported objects hold the k smallest
        upper bounds in L: ``dk_final`` is L's k-th entry."""
        for k in (1, 2, 3, 10):
            result, entries, _ = knn_and_l(31, k)
            assert entries == sorted(entries)
            assert result.stats.dk_final == entries[k - 1][0]

    def test_update_moves_entry(self, knn_and_l):
        """A refined object's entry is replaced, not duplicated, and
        carries the refined upper bound."""
        result, entries, _ = knn_and_l(31, 10)
        assert result.stats.refinements > 0
        assert len({oid for _, _, oid in entries}) == len(entries)
        assert len(entries) == result.stats.objects_seen
        his = {oid: hi for hi, _, oid in entries}
        assert all(his[n.oid] == n.interval.hi for n in result.neighbors)

    def test_update_many_entries_moves_the_right_one(self, knn_and_l, monkeypatch):
        """Sequence numbers are unique and the last one written is the
        number of writes: no stale entry survived an update.  L is keyed
        on the upper bound, so it is written once per object seen and
        once per refinement step that moved that bound -- no more."""
        steps = moved = 0
        real_refine = RefinableDistance.refine

        def refine(state):
            nonlocal steps, moved
            hi = state.hi
            real_refine(state)
            steps += 1
            moved += state.hi != hi

        monkeypatch.setattr(RefinableDistance, "refine", refine)
        result, entries, writes = knn_and_l(77, 25)
        seqs = sorted(seq for _, seq, _ in entries)
        assert len(set(seqs)) == len(seqs) and seqs[-1] == writes - 1
        assert steps == result.stats.refinements and 0 < moved < steps
        assert writes == result.stats.objects_seen + moved

    def test_operations_are_counted(
        self, knn_and_l, small_index, small_object_index
    ):
        """``l_ops`` is every write to L plus every read of Dk -- one
        per pop, per expansion and per refinement -- and zero for the
        variants that keep no L."""
        result, _, writes = knn_and_l(31, 10)
        s = result.stats
        reads = s.l_ops - writes
        assert reads >= (
            s.leaf_expansions + s.nonleaf_expansions + s.refinements
            + s.confirmations
        )
        for variant in ("inn", "knn_i", "knn_m"):
            other = best_first_knn(
                small_index, small_object_index, 31, 10, variant=variant
            )
            assert other.stats.l_ops == 0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 149), st.integers(1, 10))
    def test_dk_matches_sorted_reference(
        self, small_dist, small_objects, small_index, small_object_index, query, k
    ):
        result = best_first_knn(
            small_index, small_object_index, query, k, variant="knn", exact=True
        )
        truth = sorted(small_dist[query, o.position.vertex] for o in small_objects)
        assert result.stats.dk_final == pytest.approx(truth[k - 1], rel=1e-9)


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
        a = QueryStats(refinements=3, max_queue=5, io_time=0.1, elapsed=1.0)
        b = QueryStats(refinements=4, max_queue=2, io_time=0.2, elapsed=2.0)
        m = a.merge(b)
        assert m.refinements == 7
        assert m.max_queue == 7  # summed (callers divide for averages)
        assert m.io_time == pytest.approx(0.3)
        assert m.elapsed == pytest.approx(3.0)

    def test_merge_does_not_mutate_operands(self):
        a = QueryStats(refinements=3)
        b = QueryStats(refinements=4)
        a.merge(b)
        assert a.refinements == 3 and b.refinements == 4
