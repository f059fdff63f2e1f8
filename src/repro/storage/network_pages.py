"""Disk-page model for the network itself (INE/IER's I/O).

The paper's baselines read the *network* (adjacency lists) from disk
while the SILC algorithms read quadtree pages; both sides run behind
the same kind of LRU buffer (p.32).  This module gives the baselines
their half of that cost model: vertices are packed into pages in
Morton order (mirroring the spatial clustering a real road database
would use), and each settled vertex touches its adjacency page.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.grid import GridEmbedding
from repro.network.graph import SpatialNetwork
from repro.storage.lru import CacheStats, LRUCache
from repro.storage.simulator import DEFAULT_MISS_LATENCY

#: Serialized bytes per vertex record header and per outgoing edge
#: (id + weight).
_VERTEX_HEADER_BYTES = 16
_EDGE_BYTES = 16


class NetworkStorageModel:
    """LRU-buffered page residence for a disk-resident network."""

    def __init__(
        self,
        network: SpatialNetwork,
        page_size: int = 4096,
        cache_fraction: float = 0.05,
        miss_latency: float = DEFAULT_MISS_LATENCY,
    ) -> None:
        if page_size <= 0:
            raise ValueError("page_size must be positive")
        if not (0.0 < cache_fraction <= 1.0):
            raise ValueError("cache_fraction must be in (0, 1]")
        self.network = network
        self.miss_latency = miss_latency

        # Pack vertices in Morton order: spatially adjacent vertices
        # share pages, giving the baselines the locality benefit a real
        # clustered layout would provide.
        embedding = GridEmbedding.for_points(network.xs, network.ys, order=10)
        codes = embedding.morton_of_array(network.xs, network.ys)
        file_order = np.argsort(codes, kind="stable")

        record_bytes = np.array(
            [
                _VERTEX_HEADER_BYTES + _EDGE_BYTES * network.out_degree(int(v))
                for v in file_order
            ],
            dtype=np.int64,
        )
        offsets = np.concatenate([[0], np.cumsum(record_bytes)])
        page_ids = offsets[:-1] // page_size
        self._page_of_vertex = np.empty(network.num_vertices, dtype=np.int64)
        self._page_of_vertex[file_order] = page_ids
        self.total_pages = int(page_ids[-1]) + 1 if len(page_ids) else 1
        self.cache = LRUCache(max(1, int(self.total_pages * cache_fraction)))
        self._page_list: list[int] = self._page_of_vertex.tolist()

    # ------------------------------------------------------------------
    # Access interface
    # ------------------------------------------------------------------
    def touch_vertex(self, vertex: int) -> None:
        """Read the page holding ``vertex``'s adjacency record."""
        self.cache.access(self._page_list[vertex])

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def stats(self) -> CacheStats:
        return self.cache.stats

    def io_time_since(self, earlier: CacheStats) -> float:
        return self.stats.delta_since(earlier).io_time(self.miss_latency)

    def warm_up(self) -> None:
        self.cache.clear()
