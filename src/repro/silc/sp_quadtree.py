"""Shortest-path quadtree construction.

Couples the coloring of :mod:`repro.silc.coloring` to the region
builder of :mod:`repro.quadtree.region`: for each chunk of sources,
sort the per-vertex colors/ratios into Morton order (the permutation
and the split levels are shared across all sources, so they are
computed once per network) and emit the maximal single-color Morton
blocks with their lambda intervals.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from repro.geometry.grid import GridEmbedding
from repro.geometry.morton import MAX_ORDER
from repro.network.errors import GraphConstructionError
from repro.network.graph import SpatialNetwork
from repro.quadtree.region import region_block_columns, split_levels
from repro.silc.coloring import coloring_chunks
from repro.silc.store import Chunk


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
    """Per-network build state (Morton sort, split levels); :meth:`chunks`
    compresses each Dijkstra chunk's colorings in a few array passes."""

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

    def chunks(
        self,
        sources: Sequence[int] | None = None,
        chunk_size: int = 128,
        limit: float = np.inf,
    ) -> Iterator[Chunk]:
        """The shortest-path quadtrees of ``sources``, a chunk at a time."""
        for chunk, colors, ratios, _ in coloring_chunks(
            self.network, sources, chunk_size, limit
        ):
            sizes, columns = region_block_columns(
                self.sorted_codes,
                self.splits,
                np.take(colors, self.order, axis=1),
                np.take(ratios, self.order, axis=1),
            )
            yield chunk, sizes, columns
