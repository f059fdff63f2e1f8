"""Simulated disk storage: page layout, LRU buffer, access accounting.

Reproduces the paper's experimental I/O model (index on disk behind an
LRU buffer holding 5% of the pages) so the I/O-time series of the
evaluation can be regenerated deterministically.
"""

from repro.storage.network_pages import NetworkStorageModel

__all__ = ["NetworkStorageModel"]
