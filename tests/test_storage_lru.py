"""Unit tests for the LRU page cache, incl. a reference-model property test.

The cache is CPython's C ``functools.lru_cache``; ``access`` returns no
hit flag, so every test reads what happened from ``stats`` and
``cache_info()``, the counters the simulator reports.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import random_vertex_objects
from repro.objects.model import EdgePosition
from repro.objects import ObjectIndex
from repro.query.bestfirst import VARIANTS, best_first_knn
from repro.storage.lru import CacheStats, LRUCache
from reference import random_edge_objects


def _counts(cache: LRUCache) -> tuple[int, int, int, int, int]:
    s = cache.stats
    return s.accesses, s.hits, s.misses, s.evictions, len(cache)


class ListLRU:
    """An obviously correct LRU: a list, least recently used first."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.pages: list[int] = []
        self.hits = self.misses = self.evictions = 0

    def access(self, page: int) -> None:
        if page in self.pages:
            self.pages.remove(page)
            self.hits += 1
        else:
            self.misses += 1
        self.pages.append(page)
        if len(self.pages) > self.capacity:
            self.pages.pop(0)
            self.evictions += 1


class TestLRUBehaviour:
    def test_miss_then_hit(self):
        c = LRUCache(capacity=2)
        c.access(1)
        assert _counts(c) == (1, 0, 1, 0, 1)
        c.access(1)
        assert _counts(c) == (2, 1, 1, 0, 1)

    def test_eviction_order_is_lru(self):
        c = LRUCache(capacity=2)
        c.access(1)
        c.access(2)
        c.access(1)  # 1 becomes most recent
        c.access(3)  # evicts 2
        before = c.stats
        c.access(1)
        c.access(3)
        assert c.stats.delta_since(before).hits == 2
        c.access(2)
        assert c.stats.delta_since(before).misses == 1

    def test_capacity_never_exceeded(self):
        c = LRUCache(capacity=3)
        for i in range(10):
            c.access(i)
            assert len(c) <= 3
        assert c.access.cache_info().maxsize == 3

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            LRUCache(capacity=0)

    def test_eviction_counter(self):
        c = LRUCache(capacity=1)
        c.access(1)
        c.access(2)
        c.access(3)
        assert c.stats.evictions == 2


class TestCacheStats:
    def test_hit_rate(self):
        s = CacheStats(accesses=10, hits=7, misses=3)
        assert s.hit_rate == pytest.approx(0.7)

    def test_hit_rate_empty(self):
        assert CacheStats().hit_rate == 0.0

    def test_io_time(self):
        s = CacheStats(accesses=10, hits=7, misses=3)
        assert s.io_time(0.002) == pytest.approx(0.006)

    def test_delta_since(self):
        a = CacheStats(accesses=5, hits=3, misses=2)
        b = CacheStats(accesses=9, hits=5, misses=4, evictions=1)
        d = b.delta_since(a)
        assert (d.accesses, d.hits, d.misses, d.evictions) == (4, 2, 2, 1)

    def test_snapshot_is_independent(self):
        c = LRUCache(capacity=2)
        snap = c.stats
        c.access(1)
        assert snap.accesses == 0
        assert c.stats.accesses == 1


class TestAgainstReferenceModel:
    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(1, 6),
        st.lists(st.integers(0, 12), min_size=1, max_size=120),
    )
    def test_matches_naive_lru_simulation(self, capacity, accesses):
        """Hits, misses, evictions and residency match a list model at
        every step."""
        cache = LRUCache(capacity=capacity)
        reference = ListLRU(capacity)
        for step, page in enumerate(accesses):
            cache.access(page)
            reference.access(page)
            assert _counts(cache) == (
                step + 1,
                reference.hits,
                reference.misses,
                reference.evictions,
                len(reference.pages),
            )
            info = cache.access.cache_info()
            assert info.currsize == len(reference.pages) <= info.maxsize


def test_page_trace_of_a_search_mix_replays_to_the_reported_io(
    small_net, small_index
):
    """The pages a seeded mix of the four variants touches, recorded by
    a ``list.append`` in place of ``access`` and replayed through the
    list model, give the ``io_accesses`` / ``io_misses`` the real
    simulator reports for the same mix."""
    rng = random.Random(25)
    embedding = small_index.embedding
    object_indexes = [
        ObjectIndex(small_net, random_vertex_objects(small_net, count=40, seed=5), embedding),
        ObjectIndex(small_net, random_edge_objects(small_net, count=30, seed=6), embedding),
    ]
    mix = []
    for _ in range(60):
        u = rng.randrange(small_net.num_vertices)
        v, _ = small_net.neighbors(u)[0]
        query = u if rng.random() < 0.5 else EdgePosition(u, v, rng.uniform(0.1, 0.9))
        mix.append(
            (rng.choice(object_indexes), query, rng.choice((1, 5, 10)),
             rng.choice(VARIANTS), rng.random() < 0.5)
        )

    def run():
        return [
            best_first_knn(small_index, oi, q, k, variant=variant, exact=exact)
            for oi, q, k, variant, exact in mix
        ]

    storage = small_index.make_storage()
    small_index.attach_storage(storage)
    try:
        results = run()
        reported = (
            sum(r.stats.io_accesses for r in results),
            sum(r.stats.io_misses for r in results),
        )
        recording = small_index.make_storage()
        pages: list[int] = []
        recording.access = pages.append
        small_index.attach_storage(recording)
        run()
    finally:
        small_index.detach_storage()
    replay = ListLRU(storage.cache.capacity)
    for page in pages:
        replay.access(page)
    assert reported == (len(pages), replay.misses) == (
        storage.stats.accesses, storage.stats.misses
    )
    assert replay.hits and replay.misses  # a buffer that did both
