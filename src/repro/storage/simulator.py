"""The storage simulator a SILC index can be attached to.

Glues :class:`StorageLayout` and :class:`LRUCache` together behind the
one-method interface the index needs (``touch(table, record)``), and
owns the experiment knobs: cache fraction and per-fault latency.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.storage.lru import CacheStats, LRUCache
from repro.storage.pages import PageLayout, StorageLayout

#: Default simulated latency of one page fault, in seconds.  5 ms is a
#: 2008-era disk seek, matching the paper's testbed, and puts queries
#: in the I/O-bound regime the paper measures; the value only scales
#: the I/O-time axes, never wall-clock time.
DEFAULT_MISS_LATENCY = 5e-3


@dataclass
class StorageSimulator:
    """Page-level access simulation for one SILC index."""

    #: Serial simulator: one shared LRU, unsafe to interleave across
    #: query threads (see repro.storage.concurrent for the sharded one).
    concurrent_safe = False

    layout: StorageLayout
    cache: LRUCache
    miss_latency: float = DEFAULT_MISS_LATENCY

    @classmethod
    def for_table_sizes(
        cls,
        table_sizes: list[int],
        cache_fraction: float = 0.05,
        page_layout: PageLayout | None = None,
        miss_latency: float = DEFAULT_MISS_LATENCY,
    ) -> StorageSimulator:
        """Build a simulator sized like the paper's setup.

        ``cache_fraction`` of the total pages (at least one) fit in
        memory; the paper uses 5%.
        """
        if not (0.0 < cache_fraction <= 1.0):
            raise ValueError("cache_fraction must be in (0, 1]")
        layout = StorageLayout(table_sizes, page_layout)
        capacity = max(1, int(layout.total_pages * cache_fraction))
        return cls(layout=layout, cache=LRUCache(capacity), miss_latency=miss_latency)

    # ------------------------------------------------------------------
    # Access interface used by SILCIndex
    # ------------------------------------------------------------------
    def touch(self, table: int, record: int) -> None:
        """Account one probe of ``record`` (once per refinement step).

        ``page_of``'s arithmetic inline; anything out of range goes to
        ``page_of`` itself, which raises the ``IndexError``.
        """
        layout = self.layout
        sizes = layout.table_sizes
        if 0 <= table < len(sizes) and 0 <= record < (sizes[table] or 1):
            page = layout.page_offsets[table] + record // layout.records_per_page
        else:
            page = layout.page_of(table, record)
        self.cache.access(page)

    def touch_range(self, table: int, lo_record: int, hi_record: int) -> None:
        for page in self.layout.pages_of_range(table, lo_record, hi_record):
            self.cache.access(page)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def stats(self) -> CacheStats:
        return self.cache.stats

    def snapshot(self) -> CacheStats:
        return self.stats.snapshot()

    def stats_since(self, earlier: CacheStats) -> CacheStats:
        """Counter delta since a :meth:`snapshot` (per-query stats)."""
        return self.stats.delta_since(earlier)

    def io_time_since(self, earlier: CacheStats) -> float:
        return self.stats.delta_since(earlier).io_time(self.miss_latency)

    def warm_up(self) -> None:
        """Reset residency to a cold cache (statistics preserved)."""
        self.cache.clear()
