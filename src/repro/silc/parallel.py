"""Parallel SILC construction: per-source builds fanned across processes.

The paper calls the precompute "mostly a one-time effort" that is
embarrassingly parallel (p.27): each source's shortest-path map and
quadtree depend only on the network, the shared grid embedding, and
that one source.  This module exploits exactly that independence.  A
``multiprocessing`` pool is primed once per worker with the network
and the embedding; each task is a *chunk* of source vertices, for
which the worker runs the chunked scipy Dijkstra and compresses the
colorings into Morton block columns.  The parent slots the resulting
tables by source id (:meth:`FlatStore.from_chunks`), so the assembled
index is **byte-identical** to a serial build no matter in which order
chunks complete.

Two transports move the data:

``shm`` (the default where ``multiprocessing.shared_memory`` works)
    The network CSR, coordinates and vertex codes are published
    *once* in a shared-memory segment; workers rebuild the network
    from those buffers with :meth:`SpatialNetwork.from_csr` -- no
    object-graph pickle per worker.  Each finished chunk's block
    columns are written into a fresh shared-memory segment and only
    the segment name plus per-source sizes travel back through the
    pool's result pickle, so the per-chunk pickle payload is a few
    hundred bytes regardless of ``chunk_size``.

``pickle`` (fallback, and the pre-flat-store behavior)
    Workers ship the chunk's five column arrays back through the
    result pickle.

:class:`BuildTransferStats` counts both channels so benchmarks can
assert that the shm transport moves ~zero bytes through pickle.

Used by :func:`repro.silc.index.build_store` (behind both
``SILCIndex.build`` and ``ProximalSILCIndex.build``) whenever
``workers`` asks for more than one process.
"""

from __future__ import annotations

import contextlib
import multiprocessing as mp
import pickle
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory
import os
from collections.abc import Iterator, Sequence

import numpy as np

from repro.geometry.grid import GridEmbedding
from repro.network.graph import SpatialNetwork
from repro.silc.sp_quadtree import SPQuadtreeBuilder
from repro.silc.store import COLUMNS, Chunk

#: Per-worker state installed by the pool initializers.  Module-level
#: so it survives between tasks without re-pickling per chunk.
_BUILDER: SPQuadtreeBuilder | None = None
_LIMIT: float = np.inf
_SHM_IN: shared_memory.SharedMemory | None = None

TRANSPORTS = ("shm", "pickle")


@dataclass
class BuildTransferStats:
    """Bytes moved per transport channel during one parallel build.

    ``result_pickle_bytes`` is what came back through the pool's
    result pickle: a shm chunk's ``(descriptor, sources, sizes)`` is
    re-measured with ``pickle.dumps`` (the pool's own serialization);
    a pickle chunk is counted by its arrays' ``nbytes``, since
    re-pickling full columns would double the cost of exactly the
    transport where it is the bottleneck.  ``shared_bytes`` counts
    column bytes written to (input segment) and read from (per-chunk
    result segments) shared memory.
    """

    transport: str = "pickle"
    chunks: int = 0
    result_pickle_bytes: int = 0
    shared_bytes: int = 0
    extras: dict = field(default_factory=dict)


#: Transfer accounting of the most recent :func:`parallel_block_columns`
#: call in this process (diagnostics and benchmark assertions).
last_build_stats: BuildTransferStats | None = None


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


def shared_memory_available() -> bool:
    """Whether the shm transport's segment lifetime contract holds.

    The result-segment handoff relies on POSIX unlink semantics: a
    worker closes its handle and the data survives until the parent
    unlinks.  On Windows a named section dies with its last open
    handle, so the transport reports unavailable there and builds
    fall back to pickle.
    """
    if os.name != "posix":  # pragma: no cover - POSIX-only contract
        return False
    try:
        seg = shared_memory.SharedMemory(create=True, size=16)
    except (OSError, ValueError):  # pragma: no cover - no /dev/shm
        return False
    _close_shm(seg, unlink=True)
    return True


def _close_shm(seg: shared_memory.SharedMemory, unlink: bool) -> None:
    """Close a handle; with ``unlink=True`` also free the segment.

    Resource-tracker bookkeeping rides on ``unlink()`` (it both
    removes the segment and unregisters the name).  Parent and pool
    workers share one tracker process whose cache of names is a *set*,
    so each segment must be unlinked/unregistered exactly once -- by
    the parent, which owns every segment's lifetime.  Workers only
    ever ``close()`` their handles.
    """
    seg.close()
    if unlink:
        try:
            seg.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            # Suppressed: already unregistered (or the tracker is gone
            # at interpreter shutdown); nothing left to clean up.
            with contextlib.suppress(KeyError, OSError):  # pragma: no cover
                resource_tracker.unregister(
                    getattr(seg, "_name", seg.name), "shared_memory"
                )


# ----------------------------------------------------------------------
# Array bundles in one shared-memory segment
# ----------------------------------------------------------------------

def _pack_arrays(
    arrays: dict[str, np.ndarray],
) -> tuple[shared_memory.SharedMemory, tuple]:
    """Copy named arrays into one fresh segment.

    Returns the open segment plus a picklable descriptor
    ``(segment_name, [(key, dtype_str, length, offset), ...])`` from
    which :func:`_unpack_arrays` rebuilds zero-copy views.
    """
    layout = []
    offset = 0
    for key, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        layout.append((key, arr.dtype.str, arr.size, offset))
        offset += arr.nbytes
    seg = shared_memory.SharedMemory(create=True, size=max(offset, 1))
    for (_key, dtype, size, off), arr in zip(layout, arrays.values(), strict=True):
        dst = np.ndarray(size, dtype=dtype, buffer=seg.buf, offset=off)
        dst[:] = np.ascontiguousarray(arr).ravel()
    return seg, (seg.name, layout)


def _unpack_arrays(
    descriptor: tuple,
) -> tuple[shared_memory.SharedMemory, dict[str, np.ndarray]]:
    """Attach a segment written by :func:`_pack_arrays`.

    The returned arrays are views into the segment's buffer: the
    caller must keep the segment object alive for as long as it uses
    them (and close it afterwards).
    """
    name, layout = descriptor
    seg = shared_memory.SharedMemory(name=name)
    arrays = {
        key: np.ndarray(size, dtype=dtype, buffer=seg.buf, offset=off)
        for key, dtype, size, off in layout
    }
    return seg, arrays


def _network_descriptor(
    network: SpatialNetwork, codes: np.ndarray
) -> tuple[shared_memory.SharedMemory, tuple]:
    """Publish the network CSR, coordinates and vertex codes once."""
    csr = network.to_csr()
    return _pack_arrays(
        {
            "xs": network.xs,
            "ys": network.ys,
            "indptr": csr.indptr,
            "indices": csr.indices,
            "data": csr.data,
            "codes": np.asarray(codes, dtype=np.int64),
        }
    )


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

def _init_worker_pickle(
    network: SpatialNetwork,
    embedding: GridEmbedding,
    codes: np.ndarray,
    limit: float,
) -> None:
    global _BUILDER, _LIMIT
    _BUILDER = SPQuadtreeBuilder(network, embedding, codes)
    _LIMIT = limit


def _init_worker_shm(
    descriptor: tuple,
    embedding: GridEmbedding,
    limit: float,
) -> None:
    from scipy import sparse

    global _BUILDER, _LIMIT, _SHM_IN
    seg, arrays = _unpack_arrays(descriptor)
    # The worker never unlinks or unregisters the input segment (the
    # parent owns both); it only keeps the handle open for its own
    # lifetime, because the rebuilt network aliases the buffer.
    _SHM_IN = seg
    n = arrays["xs"].size
    csr = sparse.csr_matrix(
        (arrays["data"], arrays["indices"], arrays["indptr"]),
        shape=(n, n),
        copy=False,
    )
    network = SpatialNetwork.from_csr(arrays["xs"], arrays["ys"], csr)
    _BUILDER = SPQuadtreeBuilder(network, embedding, arrays["codes"])
    _LIMIT = limit


def _build_chunk(chunk: list[int]) -> Chunk:
    """One pool task; as is, the pickle transport's return value."""
    builder = _BUILDER
    assert builder is not None, "worker used before initialization"
    (built,) = builder.chunks(chunk, chunk_size=len(chunk), limit=_LIMIT)
    return built


def _build_chunk_shm(chunk: list[int]) -> tuple:
    """Shm transport: columns into a fresh segment, names back.

    Returns ``(descriptor, sources, sizes)``.  The worker closes its
    handle right away but leaves the segment linked (and registered --
    the parent unregisters once when it unlinks): the data must
    survive until the parent has copied it out.
    """
    sources, sizes, columns = _build_chunk(chunk)
    seg, descriptor = _pack_arrays(columns)
    seg.close()
    return descriptor, sources, sizes.tolist()


def _receive_chunk_shm(payload: tuple) -> Chunk:
    """Parent side: copy a chunk's columns out of shared memory."""
    descriptor, sources, sizes = payload
    seg, arrays = _unpack_arrays(descriptor)
    try:
        columns = {name: np.array(arrays[name], copy=True) for name in COLUMNS}
    finally:
        _close_shm(seg, unlink=True)
    return sources, np.asarray(sizes, dtype=np.int64), columns


# ----------------------------------------------------------------------
# Parent orchestration
# ----------------------------------------------------------------------

def parallel_block_columns(
    network: SpatialNetwork,
    embedding: GridEmbedding,
    codes: np.ndarray,
    sources: Sequence[int] | None,
    workers: int,
    chunk_size: int = 128,
    limit: float = np.inf,
    transport: str | None = None,
) -> Iterator[Chunk]:
    """Build the shortest-path quadtrees of many sources in parallel.

    Yields one ``(sources, sizes, columns)`` chunk per pool task, in
    completion order; the caller assembles them into the flat store.
    ``transport`` picks how results (and in shm mode, the network)
    move between processes: ``"shm"``, ``"pickle"``, or ``None`` for
    shm-when-available.  Transfer accounting for the call lands in
    :data:`last_build_stats`.

    If the pool iteration aborts mid-build (worker crash, interrupt),
    result segments of chunks that finished but were never consumed
    stay allocated until interpreter exit, where the multiprocessing
    resource tracker reclaims them (with a warning); the input
    segment is always unlinked here.
    """
    global last_build_stats
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    if transport is not None and transport not in TRANSPORTS:
        raise ValueError(
            f"unknown transport {transport!r}; expected one of {TRANSPORTS}"
        )
    if transport is None:
        transport = "shm" if shared_memory_available() else "pickle"
    elif transport == "shm" and not shared_memory_available():
        raise RuntimeError("shared memory is not available on this system")
    source_list = (
        list(range(network.num_vertices)) if sources is None else list(sources)
    )
    total = len(source_list)
    stats = BuildTransferStats(transport=transport)
    last_build_stats = stats
    if total == 0:
        return
    # Shrink oversized chunks so every worker gets at least one task.
    chunk_size = min(chunk_size, max(1, -(-total // workers)))
    chunks = [
        source_list[i : i + chunk_size] for i in range(0, total, chunk_size)
    ]
    workers = min(workers, len(chunks))
    method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    ctx = mp.get_context(method)

    seg_in: shared_memory.SharedMemory | None = None
    if transport == "shm":
        seg_in, descriptor = _network_descriptor(network, codes)
        stats.shared_bytes += seg_in.size
        stats.extras["network_shared_bytes"] = seg_in.size
        initializer, initargs = _init_worker_shm, (descriptor, embedding, limit)
        task = _build_chunk_shm
    else:
        initializer = _init_worker_pickle
        initargs = (network, embedding, codes, limit)
        task = _build_chunk

    try:
        with ctx.Pool(
            processes=workers, initializer=initializer, initargs=initargs
        ) as pool:
            for payload in pool.imap_unordered(task, chunks):
                stats.chunks += 1
                if transport == "shm":
                    stats.result_pickle_bytes += len(
                        pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
                    )
                    payload = _receive_chunk_shm(payload)
                    stats.shared_bytes += sum(c.nbytes for c in payload[2].values())
                else:
                    stats.result_pickle_bytes += payload[1].nbytes + sum(
                        c.nbytes for c in payload[2].values()
                    )
                yield payload
    finally:
        if seg_in is not None:
            _close_shm(seg_in, unlink=True)
