"""Unit tests for progressive refinement."""

import pytest

from repro.silc import RefinementCounter


class TestRefinableDistance:
    def test_initial_interval_contains_truth(self, small_index, small_dist, rng):
        n = small_dist.shape[0]
        for _ in range(50):
            u, v = map(int, rng.integers(0, n, 2))
            r = small_index.refinable(u, v)
            assert r.interval.lo <= small_dist[u, v] <= r.interval.hi

    def test_monotone_refinement(self, small_index, small_dist, rng):
        """Lower bounds never decrease, upper bounds never increase."""
        n = small_dist.shape[0]
        for _ in range(30):
            u, v = map(int, rng.integers(0, n, 2))
            r = small_index.refinable(u, v)
            prev = r.interval
            while r.refine():
                cur = r.interval
                assert cur.lo >= prev.lo - 1e-12
                assert cur.hi <= prev.hi + 1e-12
                assert cur.lo <= small_dist[u, v] + 1e-9
                assert cur.hi >= small_dist[u, v] - 1e-9
                prev = cur

    def test_terminates_exact(self, small_index, small_dist, rng):
        n = small_dist.shape[0]
        for _ in range(30):
            u, v = map(int, rng.integers(0, n, 2))
            r = small_index.refinable(u, v)
            d = r.refine_fully()
            assert r.is_exact
            assert d == pytest.approx(small_dist[u, v], rel=1e-9, abs=1e-12)

    def test_refine_on_exact_is_noop(self, small_index):
        r = small_index.refinable(3, 3)
        assert r.is_exact
        assert not r.refine()

    def test_steps_equal_path_length(self, small_index):
        u, v = 0, 100
        path = small_index.path(u, v)
        r = small_index.refinable(u, v)
        steps = 0
        while r.refine():
            steps += 1
        assert steps == len(path) - 1

    def test_counter_shared_across_refinables(self, small_index):
        counter = RefinementCounter()
        r1 = small_index.refinable(0, 50, counter=counter)
        r2 = small_index.refinable(0, 80, counter=counter)
        r1.refine()
        r2.refine()
        r2.refine()
        assert counter.count == 3

    def test_offset_shifts_whole_interval(self, small_index, small_dist):
        base = small_index.refinable(0, 60)
        shifted = small_index.refinable(0, 60, offset=5.0)
        assert shifted.interval.lo == pytest.approx(base.interval.lo + 5.0)
        assert shifted.interval.hi == pytest.approx(base.interval.hi + 5.0)
        assert shifted.refine_fully() == pytest.approx(
            small_dist[0, 60] + 5.0, rel=1e-9
        )

    def test_negative_offset_rejected(self, small_index):
        with pytest.raises(ValueError):
            small_index.refinable(0, 1, offset=-1.0)

    def test_via_walks_the_shortest_path(self, small_index):
        u, v = 5, 110
        path = small_index.path(u, v)
        r = small_index.refinable(u, v)
        seen = [r.via]
        while r.refine():
            seen.append(r.via)
        assert seen == path

    def test_acc_tracks_prefix_distance(self, small_index, small_dist):
        u, v = 2, 90
        r = small_index.refinable(u, v)
        while r.refine():
            assert r.acc == pytest.approx(small_dist[u, r.via], rel=1e-9)

    def test_max_steps_guard(self, small_index):
        r = small_index.refinable(0, 100)
        with pytest.raises(RuntimeError):
            r.refine_fully(max_steps=1)
