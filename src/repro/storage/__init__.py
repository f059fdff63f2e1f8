"""Simulated disk storage: page layout, LRU buffer, access accounting.

Reproduces the paper's experimental I/O model (index on disk behind an
LRU buffer holding 5% of the pages) so the I/O-time series of the
evaluation can be regenerated deterministically.
"""

from repro.storage.lru import CacheStats, LRUCache
from repro.storage.network_pages import NetworkStorageModel
from repro.storage.pages import PageLayout, StorageLayout
from repro.storage.simulator import DEFAULT_MISS_LATENCY, StorageSimulator

__all__ = [
    "CacheStats",
    "LRUCache",
    "PageLayout",
    "StorageLayout",
    "StorageSimulator",
    "NetworkStorageModel",
    "DEFAULT_MISS_LATENCY",
]
