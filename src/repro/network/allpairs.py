"""All-pairs shortest-path rows with first-hop extraction.

The SILC precompute needs, for every source vertex ``u``, two arrays
over all destinations ``v``:

* ``dist[v]``   -- the network distance ``d_G(u, v)``, and
* ``first[v]``  -- the *first hop*: the neighbor of ``u`` that begins
  the shortest path ``u -> v`` (this is the "color" of ``v`` in the
  paper's shortest-path map of ``u``).

Running the pure-Python Dijkstra ``N`` times is exactly the cost the
repro band warned about, so this module drives
:func:`scipy.sparse.csgraph.dijkstra` in source *chunks* (C speed,
bounded memory) and recovers first hops from the predecessor matrix
with a vectorized pointer-doubling pass: turn every child of the
source into a fixed point of the predecessor function, then square the
function until it converges -- each vertex lands on the child of the
source that roots its subtree, which is precisely the first hop.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from repro.network.graph import SpatialNetwork

#: scipy's "no predecessor" sentinel.
_NO_PRED = -9999


def first_hops_from_predecessors(
    pred: np.ndarray, sources: Sequence[int]
) -> np.ndarray:
    """Derive first-hop matrices from scipy predecessor matrices.

    Parameters
    ----------
    pred:
        ``(k, n)`` predecessor matrix from ``csgraph.dijkstra`` for the
        given ``k`` sources (entries ``-9999`` where no predecessor).
    sources:
        The source vertex for each row.

    Returns
    -------
    ``(k, n)`` int32 matrix ``F`` with ``F[i, v]`` = first hop of the
    path ``sources[i] -> v``; ``F[i, sources[i]] = sources[i]`` and
    ``F[i, v] = -1`` for unreachable ``v``.
    """
    pred = np.asarray(pred)
    if pred.ndim == 1:
        pred = pred[np.newaxis, :]
    k, n = pred.shape
    if len(sources) != k:
        raise ValueError(f"{k} predecessor rows but {len(sources)} sources")
    src = np.asarray(sources, dtype=np.int64)

    rows = np.arange(k)[:, np.newaxis]
    verts = np.arange(n, dtype=np.int64)[np.newaxis, :]

    unreachable = pred == _NO_PRED
    # Jump function: children of the source (and the source itself, and
    # unreachable vertices) become fixed points; everything else points
    # at its predecessor.
    jump = pred.astype(np.int64, copy=True)
    fixed = unreachable | (pred == src[:, np.newaxis])
    jump = np.where(fixed, verts, jump)
    jump[rows[:, 0], src] = src

    # Pointer doubling: composing the jump function with itself halves
    # the remaining chain length each pass, so convergence takes
    # O(log(max path hops)) gathers.
    for _ in range(2 * int(np.ceil(np.log2(max(n, 2)))) + 2):
        nxt = jump[rows, jump]
        if np.array_equal(nxt, jump):
            break
        jump = nxt

    first = jump.astype(np.int32)
    first[unreachable] = -1
    first[rows[:, 0], src] = src.astype(np.int32)
    return first


def materialize_sources(
    network: SpatialNetwork, sources: Sequence[int] | None
) -> list[int] | None:
    """Validate and materialize a ``sources`` argument.

    Accepts any iterable -- including a one-shot generator, which would
    otherwise be silently exhausted by a ``len(list(...))`` probe -- and
    returns a plain list of vertex ids, or ``None`` when ``sources`` is
    ``None`` (meaning: every vertex).  Every id is range-checked here so
    consumers can iterate without re-validating.
    """
    if sources is None:
        return None
    out = [int(s) for s in sources]
    for s in out:
        network.check_vertex(s)
    return out


def all_pairs_chunks(
    network: SpatialNetwork,
    chunk_size: int = 128,
    sources: Sequence[int] | None = None,
    limit: float = np.inf,
) -> Iterator[tuple[list[int], np.ndarray, np.ndarray]]:
    """Stream ``(sources, dist, first_hop)`` matrices, a chunk at a time.

    One SciPy Dijkstra call per ``chunk_size`` sources; row ``i`` of
    the two ``(len(sources), n)`` matrices belongs to ``sources[i]``.
    Memory stays at ``O(chunk_size * n)`` whatever the network size.
    ``limit`` truncates the expansion at a network-distance horizon
    (the proximal-index strategy of the paper's p.27): vertices beyond
    it report distance ``inf`` and first hop ``-1``.
    """
    from scipy.sparse import csgraph

    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    all_sources = materialize_sources(network, sources)
    if all_sources is None:
        all_sources = list(network.vertices())
    csr = network.to_csr()
    for start in range(0, len(all_sources), chunk_size):
        chunk = all_sources[start : start + chunk_size]
        dist, pred = csgraph.dijkstra(
            csr, indices=chunk, return_predecessors=True, limit=limit
        )
        yield chunk, dist, first_hops_from_predecessors(pred, chunk)


def all_pairs_rows(
    network: SpatialNetwork,
    chunk_size: int = 128,
    sources: Sequence[int] | None = None,
    limit: float = np.inf,
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """:func:`all_pairs_chunks`, one ``(source, dist_row, first_hop_row)`` at a time."""
    for chunk, dist, first in all_pairs_chunks(network, chunk_size, sources, limit):
        yield from zip(chunk, dist, first, strict=True)


def distance_matrix(network: SpatialNetwork) -> np.ndarray:
    """Dense all-pairs distance matrix (test/verification sizes only)."""
    from scipy.sparse import csgraph

    return csgraph.dijkstra(network.to_csr())
