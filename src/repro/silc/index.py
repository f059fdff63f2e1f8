"""The SILC index: one shortest-path quadtree per network vertex.

This is the paper's primary data structure.  Building it runs one
single-source shortest-path computation per vertex (the O(N^1.5)-space
precompute); querying it answers, in far less than a Dijkstra search:

* ``next_hop(u, v)``        -- first link of the shortest path (one
  block-table point location),
* ``path(u, v)``            -- the whole path in size-of-path steps,
* ``distance(u, v)``        -- exact network distance,
* ``route(u, v)``           -- both of the above from one walk,
* ``hop_and_interval(u, v)`` -- the next hop and a
  ``[lambda_min*d_E, lambda_max*d_E]`` distance interval (one probe),
* ``refinable(u, v)``       -- a progressively refinable distance,
* ``block_lower_bound``     -- network-distance lower bound from a
  vertex to an object-index block (for best-first kNN).

An optional :class:`~repro.storage.StorageSimulator` can be attached,
after which every block-table probe is accounted as a page access
through the simulated LRU buffer -- the paper's I/O cost model.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from pathlib import Path
from collections.abc import Callable, Iterator, Sequence

import numpy as np

from repro.errors import CorruptIndexError
from repro.geometry.grid import GridEmbedding
from repro.geometry.morton import block_cells
from repro.geometry.rect import Rect
from repro.integrity import atomic_directory, checked_load, verify_manifest
from repro.network.allpairs import materialize_sources
from repro.network.errors import OutEdgeNotFound, PathNotFound
from repro.network.graph import SpatialNetwork
from repro.quadtree.blocks import BEYOND, LAMBDA_LADDER, column_dtypes
from repro.silc.parallel import parallel_block_columns, resolve_workers
from repro.silc.intervals import REL_PAD as _REL_PAD
from repro.silc.refinement import RefinableDistance, RefinementCounter
from repro.silc.sp_quadtree import SPQuadtreeBuilder, choose_grid_order
from repro.silc.store import COLUMNS, Chunk, FlatStore
from repro.storage.pages import PageLayout
from repro.storage.simulator import StorageSimulator


def build_store(
    network: SpatialNetwork,
    sources: Sequence[int] | None,
    limit: float,
    chunk_size: int,
    progress: Callable[[int, int], None] | None,
    workers: int | None,
) -> tuple[GridEmbedding, np.ndarray, FlatStore]:
    """The one build loop: ``(embedding, vertex codes, store)``.

    Feeds Dijkstra chunks -- serially or from the process pool --
    through the region kernel and assembles their columns; a full
    index and a proximal one differ only in ``limit``.  ``progress``
    is called once per source, after its chunk has arrived.
    """
    network.require_strongly_connected()
    dtypes = column_dtypes(network.max_out_degree)
    embedding, codes = choose_grid_order(network)
    source_list = materialize_sources(network, sources)
    total = network.num_vertices if source_list is None else len(source_list)
    n_workers = resolve_workers(workers)
    if n_workers > 1 and total > 1:
        chunks = parallel_block_columns(
            network, embedding, codes, source_list, n_workers, chunk_size, limit
        )
    else:
        chunks = SPQuadtreeBuilder(network, embedding, codes).chunks(
            source_list, chunk_size, limit
        )

    def ticking() -> Iterator[Chunk]:
        done = 0
        for chunk in chunks:
            yield chunk
            if progress is not None:
                for _ in chunk[0]:
                    done += 1
                    progress(done, total)

    store = FlatStore.from_chunks(network.num_vertices, ticking(), dtypes)
    return embedding, codes, store.validate(network.out_degrees())


class SILCIndex:
    """Per-vertex shortest-path quadtrees over one spatial network."""

    def __init__(
        self,
        network: SpatialNetwork,
        embedding: GridEmbedding,
        vertex_codes: np.ndarray,
        store: FlatStore,
    ) -> None:
        if store.num_tables != network.num_vertices:
            raise ValueError(
                f"{store.num_tables} tables for {network.num_vertices} vertices"
            )
        self.network = network
        self.embedding = embedding
        self.vertex_codes = np.asarray(vertex_codes, dtype=np.int64)
        #: The flat columnar store: vertex ``v``'s table is rows
        #: ``offsets[v]:offsets[v + 1]`` of its columns.
        self.store = store
        #: The saved directory whose files ``store`` maps, set by
        #: ``load(..., mmap=True)``; ``None`` for a built or eagerly
        #: loaded index, which is a copy in memory, not a view of files.
        self.directory: Path | None = None
        self.storage: StorageSimulator | None = None
        # Native-type mirrors for the query hot path: indexing numpy
        # scalars costs ~10x a list lookup, and hop_and_interval runs once
        # per refinement step.  A probe bisects ``_columns`` between two
        # ``_offsets`` and reads a lambda as ``LAMBDA_LADDER[bits]``.
        self._xf: list[float] = network.xs.tolist()
        self._yf: list[float] = network.ys.tolist()
        self._vcodes: list[int] = self.vertex_codes.tolist()
        self._columns = store.columns
        self._offsets: list[int] = store.offsets.tolist()

    @property
    def tables(self) -> FlatStore:
        """The store, read-only: ``tables[v]`` is vertex ``v``'s
        :class:`~repro.quadtree.blocks.BlockTable`, built on demand."""
        return self.store

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        network: SpatialNetwork,
        chunk_size: int = 128,
        sources: Sequence[int] | None = None,
        progress: Callable[[int, int], None] | None = None,
        workers: int | None = None,
    ) -> SILCIndex:
        """Run the full SILC precompute for a network.

        ``sources`` restricts the build to a subset of vertices (used
        by the localized-rebuild example) and may be any iterable,
        including a generator; queries may then only start from built
        vertices.  ``progress`` receives ``(done, total)`` once per
        source, as its chunk completes.  ``workers`` fans
        the per-source builds across a process pool: ``None``/``1``
        builds serially, ``0`` uses every available CPU, and any other
        value is the pool size.  The parallel result is byte-identical
        to the serial one.
        """
        return cls(network, *build_store(
            network, sources, np.inf, chunk_size, progress, workers
        ))

    # ------------------------------------------------------------------
    # Storage attachment
    # ------------------------------------------------------------------
    def check_storage(self, simulator: StorageSimulator) -> None:
        """Raise ``ValueError`` unless ``simulator`` was sized for this index."""
        if simulator.layout.table_sizes != self.store.sizes.tolist():
            raise ValueError("simulator layout does not match the index tables")

    def attach_storage(self, simulator: StorageSimulator) -> None:
        """Route every block-table probe through a page-cache simulator."""
        self.check_storage(simulator)
        self.storage = simulator

    def detach_storage(self) -> None:
        self.storage = None

    def make_storage(
        self,
        cache_fraction: float = 0.05,
        miss_latency: float | None = None,
    ) -> StorageSimulator:
        """A simulator sized for this index (paper default: 5% cache),
        its pages packed with this index's own records."""
        kwargs = {} if miss_latency is None else {"miss_latency": miss_latency}
        return StorageSimulator.for_table_sizes(
            self.store.sizes.tolist(),
            cache_fraction=cache_fraction,
            page_layout=PageLayout(record_bytes=self.record_bytes),
            **kwargs,
        )

    # ------------------------------------------------------------------
    # Core probes
    # ------------------------------------------------------------------
    def next_hop(self, source: int, target: int) -> int:
        """First vertex after ``source`` on the shortest path to target."""
        return self.hop_and_interval(source, target)[0]

    def hop_and_interval(
        self, source: int, target: int
    ) -> tuple[int, float, float]:
        """One probe returning the next hop and the raw interval bounds.

        The reference probe: one C ``bisect`` over the source's row range
        of the store's own, possibly mapped, ``codes`` column -- nothing
        is copied or kept -- yields the colour, the rank of the first
        edge in ``network.out_edges[source]``, whose target is the next
        hop, and the ``[lo, hi]`` distance bounds; the probed row is
        accounted as a page access when storage is attached.  A colour
        that names no out-edge raises :meth:`missing_hop`'s error before
        any page is counted.  A search's refinement states carry these
        lines inline (:class:`RefinableDistance`).
        """
        self.network.check_vertex(source)
        self.network.check_vertex(target)
        if source == target:
            return source, 0.0, 0.0
        codes, levels, colors, lam_min, lam_max = self._columns
        start = self._offsets[source]
        cell = self._vcodes[target]
        row = bisect_right(codes, cell, start, self._offsets[source + 1]) - 1
        if row < start or cell >= codes[row] + (1 << 2 * levels[row]):
            raise PathNotFound(source, target)
        rank = colors[row]
        if rank < 0:
            raise self.missing_hop(source, target, rank)
        try:
            hop = self.network.out_edges[source][rank][0]
        except IndexError:
            raise self.missing_hop(source, target, rank) from None
        storage = self.storage
        if storage is not None:
            # attach_storage matched the layout to these tables and
            # ``row`` was just located in one: nothing is left to check.
            layout = storage.layout
            storage.access(
                layout.page_offsets[source] + (row - start) // layout.records_per_page
            )
        d_e = math.hypot(
            self._xf[source] - self._xf[target], self._yf[source] - self._yf[target]
        )
        return (
            hop,
            LAMBDA_LADDER[lam_min[row]] * d_e * (1.0 - _REL_PAD),
            LAMBDA_LADDER[lam_max[row]] * d_e * (1.0 + _REL_PAD),
        )

    def missing_hop(self, source: int, target: int, rank: int) -> Exception:
        """The error for a probe of ``source``'s table toward ``target``
        whose colour ``rank`` names none of ``source``'s out-edges:
        :class:`PathNotFound` for ``BEYOND`` (no path was stored: the
        target is unreachable), :class:`OutEdgeNotFound` for the block
        of the table's own vertex or a corrupt row."""
        if rank == BEYOND:
            return PathNotFound(source, target)
        return OutEdgeNotFound(source, rank, len(self.network.out_edges[source]))

    def refinable(
        self,
        source: int,
        target: int,
        counter: RefinementCounter | None = None,
        offset: float = 0.0,
    ) -> RefinableDistance:
        """A progressively refinable distance from source to target."""
        self.network.check_vertex(source)
        self.network.check_vertex(target)
        return RefinableDistance(self, source, target, counter=counter, offset=offset)

    # ------------------------------------------------------------------
    # Paths and exact distances
    # ------------------------------------------------------------------
    def path(self, source: int, target: int) -> list[int]:
        """The shortest path in size-of-path steps (p.17): :meth:`route`'s."""
        return self.route(source, target)[0]

    def distance(self, source: int, target: int) -> float:
        """Exact network distance (one walk of the path)."""
        return self.refinable(source, target).refine_fully()

    def route(self, source: int, target: int) -> tuple[list[int], float]:
        """``(path(s, t), distance(s, t))`` from one walk.

        The vias :meth:`~RefinableDistance.refine_fully` passes through
        *are* the path, so :meth:`distance`'s walk yields both, bit for
        bit -- and raises what it raises: a walk whose next hops leave
        the shortest path lands outside its first probe's bounds.
        """
        path = [source]
        return path, self.refinable(source, target).refine_fully(trail=path)

    # ------------------------------------------------------------------
    # Block-level lower bounds (for the object-index traversal)
    # ------------------------------------------------------------------
    def bound_column(self, source: int) -> list[float]:
        """``lam_min[i] * MINDIST(source, block_i)`` for every row of
        ``source``'s table -- the per-row term of
        :meth:`block_lower_bound`, computed in one vectorised pass.

        A query computes it once per anchor and hands it to every
        :meth:`block_lower_bound` call it makes for that anchor.  The
        float16 lambdas widen to float64 in numpy: the ladder's values.
        """
        self.network.check_vertex(source)
        codes, levels, _, lam_min, _ = self._columns
        rows = slice(self._offsets[source], self._offsets[source + 1])
        px = self._xf[source]
        py = self._yf[source]
        xmin, ymin, xmax, ymax = self.embedding.block_world_bounds_array(
            np.asarray(codes[rows]), np.asarray(levels[rows])
        )
        dx = np.maximum(np.maximum(xmin - px, 0.0), px - xmax)
        dy = np.maximum(np.maximum(ymin - py, 0.0), py - ymax)
        lam = np.asarray(lam_min[rows]).view(np.float16).astype(np.float64)
        return (lam * np.hypot(dx, dy)).tolist()

    def block_lower_bound(
        self,
        source: int,
        code: int,
        level: int,
        account: bool = True,
        column: list[float] | None = None,
    ) -> float:
        """Lower bound on the network distance from ``source`` to any
        *vertex* inside the Morton block ``(code, level)``.

        Implements the paper's DISTANCE_INTERVAL(object, Region)
        primitive: intersect the block with the source's shortest-path
        quadtree and take the best ``lambda_min * MINDIST`` over the
        overlapping pieces (distances in network-weight units, the same
        units as edge weights).  Returns ``inf`` when the block
        contains no network vertex at all.

        ``column`` is ``bound_column(source)``; callers bounding many
        blocks from one source pass it so the vectorised part runs
        once, not per block.  ``account=False`` skips the
        storage-simulator page accounting, for a caller that must not
        touch the simulator (one LRU, unsafe to interleave).
        """
        self.network.check_vertex(source)
        codes, levels, _, lam_min, _ = self._columns
        start, end = self._offsets[source], self._offsets[source + 1]
        hi_code = code + block_cells(level)
        # The run of rows overlapping [code, hi_code): sorted disjoint
        # blocks meeting an interval are contiguous.
        first = bisect_right(codes, code, start, end) - 1
        if first < start or codes[first] + (1 << 2 * levels[first]) <= code:
            first += 1
        stop = bisect_left(codes, hi_code, start, end)
        if stop <= first:
            return float("inf")
        if self.storage is not None and account:
            # The run is non-empty and in a table check_vertex just
            # admitted: its pages need no range check.
            layout = self.storage.layout
            base, per_page = layout.page_offsets[source], layout.records_per_page
            for page in range((first - start) // per_page, (stop - 1 - start) // per_page + 1):
                self.storage.access(base + page)
        # Aligned Morton blocks either nest or are disjoint, so the
        # intersection of each overlapping block with the query block
        # is simply the smaller of the two.  Rows are sorted and
        # disjoint, so the whole run is nested in the query range when
        # its two ends are (each row's column entry applies); otherwise
        # the run is the one table block that contains the query block.
        last = stop - 1
        last_end = codes[last] + (1 << 2 * levels[last])
        if codes[first] >= code and last_end <= hi_code:
            if column is None:
                column = self.bound_column(source)
            best = min(column[first - start : stop - start])
        else:
            best = LAMBDA_LADDER[lam_min[first]] * self.embedding.block_world_rect(
                code, level
            ).min_distance_to_point_xy(self._xf[source], self._yf[source])
        return best * (1.0 - _REL_PAD)

    # ------------------------------------------------------------------
    # Statistics / serialization
    # ------------------------------------------------------------------
    def total_blocks(self) -> int:
        """Total Morton blocks -- the paper's storage unit (p.16)."""
        return self.store.total_blocks

    def blocks_per_vertex(self) -> np.ndarray:
        return self.store.sizes

    @property
    def record_bytes(self) -> int:
        """Bytes of one of this index's blocks: 10, 11 with int16 colours."""
        return sum(column.itemsize for column in self.store.column_arrays().values())

    def storage_bytes(self, record_bytes: int | None = None) -> int:
        """Block bytes at ``record_bytes`` a block (default: the index's own)."""
        if record_bytes is None:
            record_bytes = self.record_bytes
        return self.total_blocks() * record_bytes

    def save(self, path) -> None:
        """Serialize the index (and embedding) to the directory ``path``.

        Every array lands as one ``.npy`` file, which is what lets
        ``load(..., mmap=True)`` map the block columns instead of
        reading them.  The write is crash-safe: it is staged in a tmp
        sibling directory together with a checksum ``MANIFEST.json``
        (written last) that :meth:`load` verifies, and published with
        ``os.replace`` -- an interrupted save can never leave a
        silently-corrupt index in place.
        """
        bounds = self.embedding.bounds
        payload = dict(
            sizes=self.store.sizes.astype(np.int64),
            vertex_codes=self.vertex_codes,
            embedding_bounds=np.array(
                [bounds.xmin, bounds.ymin, bounds.xmax, bounds.ymax]
            ),
            embedding_order=np.array([self.embedding.order]),
            out_edges_digest=np.array([self.network.out_edge_digest()], dtype=np.uint32),
            **self.store.column_arrays(),
        )
        with atomic_directory(path) as tmp:
            for name, array in payload.items():
                np.save(tmp / f"{name}.npy", array)

    def save_sharded(self, path, shard_map) -> None:
        """:meth:`save`: there is one layout and shard workers map it.

        Kept only because ``bench/silcbench/ladder.py`` times this call
        and ``bench/`` is frozen; nothing under ``src/`` calls it
        (ROADMAP 1(a) deletes it together with the ladder's row).
        """
        self.save(path)

    @classmethod
    def load(cls, path, network: SpatialNetwork, mmap: bool = False) -> SILCIndex:
        """Restore an index saved by :meth:`save` for the same network.

        ``mmap=True`` memory-maps the block columns instead of reading
        them, and skips the store-wide invariant validation of an eager
        load (whole-column temporaries).

        Either way, before any query can run, every file's size and
        CRC-32 are checked against ``MANIFEST.json`` (a whole mapped
        load of a 1 000-vertex road index takes 4.2-4.5 ms warm), so a
        missing manifest or any missing, truncated, byte-flipped or
        unparseable column raises
        :class:`~repro.errors.CorruptIndexError` naming the column.
        The ``out_edges_digest`` saved with the index (the out-edge
        lists, weights and positions its colours and λ were computed
        from) must equal ``network.out_edge_digest()``, else the same
        error: an index serves only the network it was built for.
        A ``path`` that is not there at all is a ``FileNotFoundError``.
        """
        directory = Path(path)
        if not directory.is_dir():
            if not directory.exists():
                raise FileNotFoundError(f"no index at {directory}")
            raise CorruptIndexError(
                f"{directory} is not an index directory: single-file index "
                "archives are no longer read (rebuild it with `repro build`)"
            )
        mode = "r" if mmap else None
        verify_manifest(directory)

        def get(name: str) -> np.ndarray:
            return checked_load(directory, f"{name}.npy", mmap_mode=mode)

        store = FlatStore.from_columns(
            np.asarray(get("sizes"), dtype=np.int64),
            {name: get(name) for name in COLUMNS},
            column_dtypes(network.max_out_degree),
        )
        if int(get("out_edges_digest")[0]) != network.out_edge_digest():
            raise CorruptIndexError(
                f"corrupt index {directory}: column 'out_edges_digest' does "
                "not match the network's out-edges and positions: the index was built "
                "for a different network (rebuild it with `repro build`)",
                column="out_edges_digest",
            )
        if not mmap:
            store.validate(network.out_degrees())
        b = get("embedding_bounds")
        embedding = GridEmbedding(
            Rect(float(b[0]), float(b[1]), float(b[2]), float(b[3])),
            int(get("embedding_order")[0]),
        )
        index = cls(network, embedding, np.asarray(get("vertex_codes")), store)
        if mmap:
            index.directory = directory
        return index
