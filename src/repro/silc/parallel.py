"""Parallel SILC construction: per-source builds fanned across processes.

The paper calls the precompute "mostly a one-time effort" that is
embarrassingly parallel (p.27): each source's shortest-path map and
quadtree depend only on the network, the shared grid embedding, and
that one source.  This module exploits exactly that independence.  A
``multiprocessing`` pool is primed once per worker with the network
and the embedding (inherited, not pickled, where the platform forks);
each task is a *chunk* of source vertices, for which the worker runs
the chunked scipy Dijkstra and compresses the colorings into Morton
block columns.  A finished chunk comes back through the pool's own
result pickle and the parent slots it by source id
(:meth:`FlatStore.from_chunks`), so the assembled index is
**byte-identical** to a serial build no matter in which order chunks
complete.

Used by :func:`repro.silc.index.build_store` (behind both
``SILCIndex.build`` and ``ProximalSILCIndex.build``) whenever
``workers`` asks for more than one process.
"""

from __future__ import annotations

import os
from collections.abc import Iterator, Sequence

import numpy as np

from repro.geometry.grid import GridEmbedding
from repro.network.graph import SpatialNetwork
from repro.silc.sp_quadtree import SPQuadtreeBuilder
from repro.silc.store import Chunk

#: Per-worker state installed by the pool initializer.  Module-level
#: so it survives between tasks without re-pickling per chunk.
_BUILDER: SPQuadtreeBuilder | None = None
_LIMIT: float = np.inf


def available_workers() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def resolve_workers(workers: int | None) -> int:
    """Normalize a ``workers`` knob to a concrete process count.

    ``None`` and ``1`` mean serial; ``0`` means one worker per
    available CPU; any other positive value is taken literally.
    """
    if workers is None:
        return 1
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if workers == 0:
        return available_workers()
    return workers


def _init_worker(
    network: SpatialNetwork,
    embedding: GridEmbedding,
    codes: np.ndarray,
    limit: float,
) -> None:
    global _BUILDER, _LIMIT
    _BUILDER = SPQuadtreeBuilder(network, embedding, codes)
    _LIMIT = limit


def _build_chunk(chunk: list[int]) -> Chunk:
    """One pool task: the quadtrees of one chunk of sources."""
    builder = _BUILDER
    assert builder is not None, "worker used before initialization"
    (built,) = builder.chunks(chunk, chunk_size=len(chunk), limit=_LIMIT)
    return built


def parallel_block_columns(
    network: SpatialNetwork,
    embedding: GridEmbedding,
    codes: np.ndarray,
    sources: Sequence[int] | None,
    workers: int,
    chunk_size: int = 128,
    limit: float = np.inf,
) -> Iterator[Chunk]:
    """Build the shortest-path quadtrees of many sources in parallel.

    Yields one ``(sources, sizes, columns)`` chunk per pool task, in
    completion order; the caller assembles them into the flat store.
    """
    import multiprocessing as mp

    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    source_list = (
        list(range(network.num_vertices)) if sources is None else list(sources)
    )
    total = len(source_list)
    if total == 0:
        return
    # Shrink oversized chunks so every worker gets at least one task.
    chunk_size = min(chunk_size, max(1, -(-total // workers)))
    chunks = [
        source_list[i : i + chunk_size] for i in range(0, total, chunk_size)
    ]
    workers = min(workers, len(chunks))
    method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    with mp.get_context(method).Pool(
        processes=workers,
        initializer=_init_worker,
        initargs=(network, embedding, codes, limit),
    ) as pool:
        yield from pool.imap_unordered(_build_chunk, chunks)
