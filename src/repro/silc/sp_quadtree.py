"""Shortest-path quadtree construction.

Couples the coloring of :mod:`repro.silc.coloring` to the region
builder of :mod:`repro.quadtree.region`: for each chunk of sources,
turn each first hop into its rank in the source's out-edge list, sort
the per-vertex colors/ratios into Morton order (the permutation and
the split levels are shared across all sources, so they are computed
once per network) and emit the maximal single-color Morton blocks with
their lambda intervals.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from repro.geometry.grid import GridEmbedding
from repro.geometry.morton import MAX_ORDER
from repro.network.errors import GraphConstructionError
from repro.network.graph import SpatialNetwork
from repro.quadtree.blocks import OWN_VERTEX, column_dtypes
from repro.quadtree.region import region_block_columns, split_levels
from repro.silc.coloring import coloring_chunks
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

    def chunks(
        self,
        sources: Sequence[int] | None = None,
        chunk_size: int = 128,
        limit: float = np.inf,
    ) -> Iterator[Chunk]:
        """The shortest-path quadtrees of ``sources``, a chunk at a time."""
        for chunk, first, ratios, _ in coloring_chunks(
            self.network, sources, chunk_size, limit
        ):
            sizes, columns = region_block_columns(
                self.sorted_codes,
                self.splits,
                np.take(self.ranks(chunk, first), self.order, axis=1),
                np.take(ratios, self.order, axis=1),
            )
            yield chunk, sizes, columns
