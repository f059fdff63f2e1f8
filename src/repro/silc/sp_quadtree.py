"""Shortest-path quadtree construction.

Couples the chunked all-pairs rows of :mod:`repro.network.allpairs`
to the region builder of :mod:`repro.quadtree.region`: for each chunk
of sources, colour each vertex with the rank of its first hop in the
source's out-edge list (the shortest-path map, p.12), compute its
network / Euclidean distance ratio, sort both into Morton order (the
permutation and the split levels are shared across all sources, so
they are computed once per network) and emit the maximal single-colour
Morton blocks with their lambda intervals.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from repro.geometry.grid import GridEmbedding
from repro.geometry.morton import MAX_ORDER
from repro.network.allpairs import all_pairs_chunks
from repro.network.errors import GraphConstructionError
from repro.network.graph import SpatialNetwork
from repro.quadtree.blocks import OWN_VERTEX, column_dtypes
from repro.quadtree.region import region_block_columns, split_levels
from repro.silc.store import Chunk, table_rows


def choose_grid_order(network: SpatialNetwork, minimum: int = 4) -> tuple[GridEmbedding, np.ndarray]:
    """Pick the smallest grid that gives every vertex its own cell.

    A shortest-path quadtree can only separate differently colored
    vertices that occupy different grid cells, so the embedding order
    is raised until the vertex -> cell map is injective.  Raises
    :class:`GraphConstructionError` when two vertices share a position
    (no grid can separate them).

    Returns the embedding and the per-vertex Morton codes.
    """
    order = max(minimum, int(np.ceil(np.log2(max(np.sqrt(network.num_vertices), 2)))) + 2)
    while order <= MAX_ORDER:
        embedding = GridEmbedding.for_points(network.xs, network.ys, order)
        codes = embedding.morton_of_array(network.xs, network.ys).astype(np.int64)
        if np.unique(codes).size == codes.size:
            return embedding, codes
        order += 1
    raise GraphConstructionError(
        "could not give every vertex a distinct grid cell at the maximum "
        "grid order; the network has coincident (or near-coincident) "
        "vertex positions"
    )


class SPQuadtreeBuilder:
    """Per-network build state (Morton sort, split levels, out-edge
    lists as arrays); :meth:`chunks` compresses each Dijkstra chunk's
    colorings in a few array passes."""

    def __init__(
        self,
        network: SpatialNetwork,
        embedding: GridEmbedding,
        codes: np.ndarray,
    ) -> None:
        self.network = network
        self.embedding = embedding
        self.codes = np.asarray(codes, dtype=np.int64)
        self.order = np.argsort(self.codes)
        self.sorted_codes = self.codes[self.order]
        self.splits = split_levels(self.sorted_codes, embedding.order)
        self.color_dtype = column_dtypes(network.max_out_degree)["colors"]
        #: Vertex ``u``'s out-edge targets, in ``network.out_edges``
        #: order, are ``targets[first_edge[u]:first_edge[u] + degrees[u]]``:
        #: the network's cached CSR, whose rows sorted by target are in
        #: that order (``out_edges`` is sorted by target too).
        csr = network.to_csr()
        csr.sort_indices()
        indptr = csr.indptr.astype(np.int64)
        self.first_edge = indptr[:-1]
        self.degrees = np.diff(indptr)
        self.targets = csr.indices.astype(np.int64)

    def ranks(self, sources: Sequence[int], first: np.ndarray) -> np.ndarray:
        """The colours of ``first`` -- ``(m, n)`` first-hop vertex ids,
        one row per source -- as out-edge ranks of the row's source:
        :data:`OWN_VERTEX` for the source itself, ``-1`` (beyond a
        horizon) kept.

        One flat gather: row ``i`` of an ``(m, n + 1)`` lookup holds the
        rank of every out-neighbour ``v`` of ``sources[i]`` at column
        ``v + 1``, ``OWN_VERTEX`` at its own, and ``-1`` in column 0,
        where a ``-1`` hop lands.
        """
        src = np.asarray(sources, dtype=np.int64)
        m, n = first.shape
        lookup = np.full((m, n + 1), -1, dtype=self.color_dtype)
        degrees = self.degrees[src]
        edges = table_rows(self.first_edge[src], degrees)
        rows = np.repeat(np.arange(m), degrees)
        lookup[rows, self.targets[edges] + 1] = edges - np.repeat(self.first_edge[src], degrees)
        lookup[np.arange(m), src + 1] = OWN_VERTEX
        return lookup.ravel()[first + (np.arange(m) * (n + 1) + 1)[:, np.newaxis]]

    def ratios(self, sources: Sequence[int], dist: np.ndarray, limit: float) -> np.ndarray:
        """``dist`` -- ``(m, n)``, one row per source -- over Euclidean
        distance: 1.0 at the source itself and, with a finite ``limit``
        (the proximal horizon, p.27), at every vertex left unreached."""
        src = np.asarray(sources, dtype=np.int64)
        xs, ys = self.network.xs, self.network.ys
        d_e = np.hypot(xs - xs[src, np.newaxis], ys - ys[src, np.newaxis])
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = dist / d_e
        ratios[np.arange(src.size), src] = 1.0
        if np.isfinite(limit):
            ratios = np.where(np.isfinite(dist), ratios, 1.0)
        return ratios

    def chunks(
        self,
        sources: Sequence[int] | None = None,
        chunk_size: int = 128,
        limit: float = np.inf,
    ) -> Iterator[Chunk]:
        """The shortest-path quadtrees of ``sources``, a chunk at a time:
        past a finite ``limit`` a vertex keeps colour ``BEYOND``, so the
        quadtree encodes the horizon boundary explicitly."""
        for chunk, dist, first in all_pairs_chunks(
            self.network, chunk_size=chunk_size, sources=sources, limit=limit
        ):
            sizes, columns = region_block_columns(
                self.sorted_codes,
                self.splits,
                np.take(self.ranks(chunk, first), self.order, axis=1),
                np.take(self.ratios(chunk, dist, limit), self.order, axis=1),
            )
            yield chunk, sizes, columns
