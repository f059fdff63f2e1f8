"""Thread-sharded storage simulation for parallel query workers.

The classic :class:`~repro.storage.StorageSimulator` wraps one
``OrderedDict``-backed LRU: correct for serial query streams, but two
query threads interleaving on it corrupt both the recency order and
the per-query accounting (a query's miss delta would include every
concurrent query's traffic).  The serving layer used to solve this
with a global lock around the whole engine -- which serialized query
execution entirely.

:class:`ShardedStorageSimulator` removes that lock by giving **each
worker thread its own LRU shard and counter set**, created lazily on
the thread's first touch:

* ``access``/``touch_range``/``snapshot`` operate purely on
  thread-local state -- no synchronization on the query hot path;
* ``stats`` merges every shard's counters on read (the engine-level
  totals used by metrics and benchmarks);
* per-query deltas stay exact because a query runs on one thread and
  ``stats_since`` diffs against that thread's own counters.

The model this simulates is a server whose workers each own a page
buffer of the configured size (shared-nothing, as a partitioned buffer
pool would be) -- hit rates are per-worker, totals are summed.

``sleep_per_miss`` optionally turns the simulated fault latency into a
*real* ``time.sleep`` (which releases the GIL).  That is what lets
``benchmarks/test_parallel_query.py`` demonstrate wall-clock scaling:
in the paper's I/O-bound regime queries spend most of their time in
page faults, and faults of different workers overlap.
"""

from __future__ import annotations

import threading
import time

from repro.storage.lru import CacheStats, LRUCache
from repro.storage.pages import PageLayout, StorageLayout
from repro.storage.simulator import DEFAULT_MISS_LATENCY


class ShardedStorageSimulator:
    """Per-thread LRU shards over one page layout, merged on read."""

    #: Marks the simulator safe for concurrent query threads; the
    #: serving layer checks this instead of isinstance.
    concurrent_safe = True

    def __init__(
        self,
        layout: StorageLayout,
        shard_capacity: int,
        miss_latency: float = DEFAULT_MISS_LATENCY,
        sleep_per_miss: float = 0.0,
    ) -> None:
        if shard_capacity < 1:
            raise ValueError("shard capacity must be at least one page")
        if sleep_per_miss < 0:
            raise ValueError("sleep_per_miss must be >= 0")
        self.layout = layout
        self.shard_capacity = shard_capacity
        self.miss_latency = miss_latency
        self.sleep_per_miss = sleep_per_miss
        self._tls = threading.local()
        self._shards: list[LRUCache] = []
        self._registry_lock = threading.Lock()

    @classmethod
    def for_table_sizes(
        cls,
        table_sizes: list[int],
        cache_fraction: float = 0.05,
        page_layout: PageLayout | None = None,
        miss_latency: float = DEFAULT_MISS_LATENCY,
        sleep_per_miss: float = 0.0,
    ) -> ShardedStorageSimulator:
        """Sized like :meth:`StorageSimulator.for_table_sizes`.

        Each worker thread's shard holds ``cache_fraction`` of the
        total pages -- the paper's per-buffer sizing, applied per
        worker.
        """
        if not (0.0 < cache_fraction <= 1.0):
            raise ValueError("cache_fraction must be in (0, 1]")
        layout = StorageLayout(table_sizes, page_layout)
        capacity = max(1, int(layout.total_pages * cache_fraction))
        return cls(
            layout=layout,
            shard_capacity=capacity,
            miss_latency=miss_latency,
            sleep_per_miss=sleep_per_miss,
        )

    @classmethod
    def from_simulator(cls, simulator) -> ShardedStorageSimulator:
        """A sharded equivalent of a plain :class:`StorageSimulator`."""
        return cls(
            layout=simulator.layout,
            shard_capacity=simulator.cache.capacity,
            miss_latency=simulator.miss_latency,
        )

    # ------------------------------------------------------------------
    # Shards
    # ------------------------------------------------------------------
    def _shard(self) -> LRUCache:
        cache = getattr(self._tls, "cache", None)
        if cache is None:
            cache = LRUCache(self.shard_capacity)
            with self._registry_lock:
                self._shards.append(cache)
            self._tls.cache = cache
        return cache

    @property
    def num_shards(self) -> int:
        """Worker threads that have touched storage so far."""
        with self._registry_lock:
            return len(self._shards)

    def shard_stats(self) -> list[CacheStats]:
        """A snapshot of every shard's counters (reporting)."""
        with self._registry_lock:
            shards = list(self._shards)
        return [s.stats.snapshot() for s in shards]

    # ------------------------------------------------------------------
    # Access interface used by SILCIndex
    # ------------------------------------------------------------------
    def access(self, page: int) -> None:
        if not self._shard().access(page) and self.sleep_per_miss:
            time.sleep(self.sleep_per_miss)

    def touch_range(self, table: int, lo_record: int, hi_record: int) -> None:
        cache = self._shard()
        misses = 0
        for page in self.layout.pages_of_range(table, lo_record, hi_record):
            if not cache.access(page):
                misses += 1
        if misses and self.sleep_per_miss:
            time.sleep(misses * self.sleep_per_miss)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def stats(self) -> CacheStats:
        """Merged counters across every shard (engine-level totals)."""
        merged = CacheStats()
        for s in self.shard_stats():
            merged.accesses += s.accesses
            merged.hits += s.hits
            merged.misses += s.misses
            merged.evictions += s.evictions
        return merged

    def snapshot(self) -> CacheStats:
        """The *calling thread's* counters (per-query accounting).

        Pair with :meth:`stats_since`, which also reads the calling
        thread's shard, so a query's delta never includes traffic from
        concurrent queries on other workers.
        """
        return self._shard().stats.snapshot()

    def stats_since(self, earlier: CacheStats) -> CacheStats:
        """Calling thread's counter delta since its own snapshot."""
        return self._shard().stats.delta_since(earlier)

    def io_time_since(self, earlier: CacheStats) -> float:
        return self.stats_since(earlier).io_time(self.miss_latency)

    def warm_up(self) -> None:
        """Reset every shard to a cold cache (statistics preserved)."""
        with self._registry_lock:
            shards = list(self._shards)
        for s in shards:
            s.clear()
