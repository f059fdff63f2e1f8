"""Baseline all-pairs storage schemes from the paper's Table (p.11).

These are the rows SILC is compared against in
``test_table_storage_tradeoffs.py``:

* :class:`NextHopMatrix` -- for every ordered vertex pair, the first
  hop of the shortest path: the classic routing-table matrix SILC
  compresses by exploiting the spatial coherence of equal-hop
  destinations.  O(N^2) space, O(k) path retrieval; kept dense (one
  int32 per pair) so the storage comparison can be measured rather
  than asserted.
* :class:`ExplicitPathStorage` -- the full vertex sequence of every
  shortest path materialized.  O(N^3) space, O(1) per path link; only
  feasible for small networks, which is the paper's point: at 24M
  vertices this representation is physically impossible.
* Dijkstra with no precomputation is the third row, provided by
  :mod:`repro.network.dijkstra`.
"""

from __future__ import annotations

import numpy as np

from repro.network.allpairs import all_pairs_rows
from repro.network.errors import PathNotFound
from repro.network.graph import SpatialNetwork


class NextHopMatrix:
    """Dense all-pairs first-hop matrix with exact distances."""

    def __init__(self, network: SpatialNetwork, first_hops: np.ndarray, dist: np.ndarray) -> None:
        self.network = network
        self.first_hops = first_hops
        self.dist = dist

    @classmethod
    def build(cls, network: SpatialNetwork, chunk_size: int = 128) -> NextHopMatrix:
        network.require_strongly_connected()
        n = network.num_vertices
        first = np.empty((n, n), dtype=np.int32)
        dist = np.empty((n, n), dtype=np.float64)
        for source, drow, frow in all_pairs_rows(network, chunk_size=chunk_size):
            first[source] = frow
            dist[source] = drow
        return cls(network, first, dist)

    def next_hop(self, source: int, target: int) -> int:
        self.network.check_vertex(source)
        self.network.check_vertex(target)
        hop = int(self.first_hops[source, target])
        if hop < 0:
            raise PathNotFound(source, target)
        return hop

    def path(self, source: int, target: int) -> list[int]:
        """Path retrieval in O(path length) matrix probes."""
        path = [source]
        guard = self.network.num_vertices
        while path[-1] != target:
            path.append(self.next_hop(path[-1], target))
            if len(path) > guard:
                raise RuntimeError("inconsistent next-hop matrix")
        return path

    def distance(self, source: int, target: int) -> float:
        """O(1) distance lookup."""
        self.network.check_vertex(source)
        self.network.check_vertex(target)
        return float(self.dist[source, target])

    def storage_bytes(self) -> int:
        """Bytes for the hop matrix alone (the paper's O(N^2) row)."""
        return self.first_hops.nbytes


class ExplicitPathStorage:
    """All shortest paths stored as explicit vertex lists."""

    def __init__(
        self,
        network: SpatialNetwork,
        paths: dict[tuple[int, int], tuple[int, ...]],
        dist: np.ndarray,
    ) -> None:
        self.network = network
        self.paths = paths
        self.dist = dist

    @classmethod
    def build(cls, network: SpatialNetwork, max_vertices: int = 1500) -> ExplicitPathStorage:
        """Materialize every path (guarded against oversized inputs).

        ``max_vertices`` protects interactive use: the structure is
        cubic and must stay a measurement-only artifact.
        """
        n = network.num_vertices
        if n > max_vertices:
            raise ValueError(
                f"explicit path storage is O(N^3); refusing n={n} > "
                f"max_vertices={max_vertices}"
            )
        hops = NextHopMatrix.build(network)
        paths: dict[tuple[int, int], tuple[int, ...]] = {}
        for s in range(n):
            for t in range(n):
                if s == t:
                    continue
                paths[(s, t)] = tuple(hops.path(s, t))
        return cls(network, paths, hops.dist)

    def path(self, source: int, target: int) -> list[int]:
        """O(1) lookup of the stored path."""
        if source == target:
            return [source]
        return list(self.paths[(source, target)])

    def distance(self, source: int, target: int) -> float:
        return float(self.dist[source, target])

    def storage_bytes(self, bytes_per_vertex_id: int = 4) -> int:
        """Total path-vertex storage (the paper's O(N^3) row)."""
        return sum(len(p) for p in self.paths.values()) * bytes_per_vertex_id
