"""The storage simulator a SILC index can be attached to.

Glues :class:`StorageLayout` and :class:`LRUCache` together behind the
interface the index needs (``layout`` to turn probed records into
pages, ``access(page)`` to account each), and owns the experiment
knobs: cache fraction and per-fault latency.
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

    def __post_init__(self) -> None:
        #: ``access(page)`` accounts one page (once per refinement
        #: step or link walked, once per page of a bounded node's
        #: rows): the cache's C ``lru_cache``, so a probe pays no frame.
        self.access = self.cache.access

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def stats(self) -> CacheStats:
        """The counters so far, a fresh value: per-query I/O is
        ``stats.delta_since(stats_before)``."""
        return self.cache.stats

