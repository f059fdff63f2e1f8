"""An LRU page cache with hit/miss accounting.

Models the paper's experimental setup: "LRU based cache that can hold
5% of the disk pages in main memory" (p.32).  Only metadata is cached
-- the simulator tracks *which* pages are resident, not their bytes --
and the resident set is CPython's C LRU, ``functools.lru_cache`` over
``int``: accounting a page enters no Python frame.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass


@dataclass
class CacheStats:
    """Counters accumulated by an :class:`LRUCache`."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def io_time(self, miss_latency: float) -> float:
        """Simulated I/O time: one ``miss_latency`` per page fault."""
        return self.misses * miss_latency

    def delta_since(self, earlier: CacheStats) -> CacheStats:
        """Counter difference, for per-query accounting."""
        return CacheStats(
            self.accesses - earlier.accesses,
            self.hits - earlier.hits,
            self.misses - earlier.misses,
            self.evictions - earlier.evictions,
        )


class LRUCache:
    """Fixed-capacity LRU set of page ids (``int``); ``access(page)``
    touches one, and *is* the C cache."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be at least one page")
        self.capacity = capacity
        self.access = functools.lru_cache(maxsize=capacity)(int)

    @property
    def stats(self) -> CacheStats:
        """The counters so far, as a fresh value: every access hit or
        missed, and every page a miss inserted is resident or evicted."""
        hits, misses, _, resident = self.access.cache_info()
        return CacheStats(hits + misses, hits, misses, misses - resident)

    def __len__(self) -> int:
        return self.access.cache_info().currsize
