"""Shortest-path maps: the coloring step of the SILC precompute.

For a source vertex ``u``, the *shortest-path map* assigns every other
vertex ``v`` the color of the first edge on the shortest path
``u -> v`` (p.12 of the paper).  Path coherence of planar spatial
networks makes equal-colored vertices spatially contiguous, which is
what the quadtree compresses.

Alongside the color we record each vertex's ratio of network distance
to Euclidean distance -- the per-vertex quantity whose block-wise
min/max becomes the ``[lambda_min, lambda_max]`` annotation driving
distance intervals.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from repro.network.allpairs import all_pairs_chunks
from repro.network.graph import SpatialNetwork


def coloring_chunks(
    network: SpatialNetwork,
    sources: Sequence[int] | None = None,
    chunk_size: int = 128,
    limit: float = np.inf,
) -> Iterator[tuple[list[int], np.ndarray, np.ndarray, np.ndarray]]:
    """Stream ``(sources, colors, ratios, dist)`` matrices per chunk.

    This is the producer side of the SILC build: row ``i`` of each
    ``(len(sources), n)`` matrix is the shortest-path map of
    ``sources[i]``; a chunk is compressed into quadtrees and dropped,
    so memory stays at ``O(chunk_size * n)``.  With a finite ``limit``
    (the proximal strategy, p.27) vertices beyond the horizon keep
    color ``-1`` and ratio 1.0 -- the quadtree then encodes the horizon
    boundary explicitly.
    """
    for chunk, dist, first in all_pairs_chunks(
        network, chunk_size=chunk_size, sources=sources, limit=limit
    ):
        src = np.asarray(chunk, dtype=np.int64)
        d_e = np.hypot(
            network.xs - network.xs[src, np.newaxis],
            network.ys - network.ys[src, np.newaxis],
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = dist / d_e
        ratios[np.arange(src.size), src] = 1.0
        if np.isfinite(limit):
            ratios = np.where(np.isfinite(dist), ratios, 1.0)
        yield chunk, first, ratios, dist

