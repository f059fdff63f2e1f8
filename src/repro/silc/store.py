"""The flat columnar SILC store.

A SILC index holds one Morton-block table per network vertex -- tens
of thousands of tables.  :class:`FlatStore` keeps the whole index in
**one** set of concatenated ``codes/levels/colors/lam_min/lam_max``
columns plus a per-vertex offset array -- exactly the layout
``SILCIndex.save`` writes to disk -- and a table is nothing but a row
range of those columns: vertex ``v``'s blocks are rows
``offsets[v]:offsets[v + 1]``.

The layout is what makes the rest of the zero-copy pipeline possible:

* a build (serial or pooled) hands over whole chunks of columns and
  the store assembles them with one gather per column;
* ``save`` is a plain dump of the columns, one ``.npy`` file each,
  which ``load`` can open with ``mmap_mode="r"`` -- the one layout on
  disk: a shard tier is N more processes mapping these same files, so
  the OS page cache holds the index once however many serve it;
* a probe bisects the store's own column ``memoryview``s between a
  vertex's two offsets, so neither a load nor a query keeps a Python
  object per block or a table object per vertex.  A mapped load of a
  1 000-vertex road index takes 2.5-2.9 ms and keeps 0.16 MB of heap,
  a 16 000-vertex one 3.9-4.6 ms and 2.44 MB; building a five-view
  table per vertex took that to 5.3-6.0 ms / 1.17 MB and 102-106 ms /
  18.6 MB.  What stays O(N) is the offsets, the vertex codes and
  coordinates the index mirrors as lists, and the network.

``store[v]`` builds vertex ``v``'s
:class:`~repro.quadtree.blocks.BlockTable` view on demand for code
that inspects one table (the maps in ``examples/``, tests); it is not
kept, and no load or query path calls it.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.integrity import check_dtypes
from repro.quadtree.blocks import COLUMN_DTYPES, COLUMNS, BlockTable, compute_ends


#: A batch of finished tables: their vertices, their block counts, and
#: their five columns back to back.
Chunk = tuple[Sequence[int], np.ndarray, dict[str, np.ndarray]]


def table_rows(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Row numbers of tables ``starts[i] .. starts[i] + sizes[i]``, back to back."""
    shift = starts - (np.cumsum(sizes) - sizes)
    return np.repeat(shift, sizes) + np.arange(sizes.sum())


def empty_columns() -> dict[str, np.ndarray]:
    """A zero-length column set with canonical dtypes."""
    return {name: np.empty(0, dtype=dt) for name, dt in COLUMN_DTYPES.items()}


class FlatStore:
    """Concatenated block-table columns for every vertex of one index.

    Parameters
    ----------
    offsets:
        ``(num_vertices + 1,)`` int64 array; vertex ``v``'s blocks live
        in rows ``offsets[v]:offsets[v + 1]`` of every column.
    codes, levels, colors, lam_min, lam_max:
        The concatenated columns.  Arrays are taken as-is (they may be
        memory-mapped); a non-canonical dtype is a
        :class:`~repro.errors.CorruptIndexError` naming the column.

    :attr:`columns` holds one ``memoryview`` per column (O(1),
    read-only over a mapped file): what every probe reads.  Views do
    not pickle and nothing pickles a store: the build pool ships numpy
    chunks and shard workers map the index directory.
    """

    __slots__ = (
        "offsets",
        "codes",
        "levels",
        "colors",
        "lam_min",
        "lam_max",
        "columns",
    )

    def __init__(
        self,
        offsets: np.ndarray,
        codes: np.ndarray,
        levels: np.ndarray,
        colors: np.ndarray,
        lam_min: np.ndarray,
        lam_max: np.ndarray,
    ) -> None:
        self.offsets = np.asarray(offsets, dtype=np.int64)
        if self.offsets.ndim != 1 or self.offsets.size < 1:
            raise ValueError("offsets must be a 1-D array of at least one entry")
        total = int(self.offsets[-1])
        self.codes = codes
        self.levels = levels
        self.colors = colors
        self.lam_min = lam_min
        self.lam_max = lam_max
        columns = self.column_arrays()
        for name, col in columns.items():
            if col.shape != (total,):
                raise ValueError(
                    f"column {name!r} has shape {col.shape}, expected ({total},)"
                )
        check_dtypes(columns, COLUMN_DTYPES, rebuild="repro build")
        #: ``(codes, levels, colors, lam_min, lam_max)`` as memoryviews.
        self.columns = tuple(map(memoryview, columns.values()))

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_columns(
        cls, sizes: np.ndarray, columns: dict[str, np.ndarray]
    ) -> FlatStore:
        """Build from per-vertex sizes plus already-concatenated columns."""
        offsets = np.concatenate([[0], np.cumsum(np.asarray(sizes, dtype=np.int64))])
        return cls(offsets.astype(np.int64), **{n: columns[n] for n in COLUMNS})

    @classmethod
    def from_chunks(cls, num_tables: int, chunks: Iterable[Chunk]) -> FlatStore:
        """Assemble ``(vertices, sizes, columns)`` chunks arriving in any order.

        Each chunk carries the tables of ``vertices`` back to back (the
        build kernel's output).  A vertex no chunk names gets an empty
        table; one named twice keeps its last table, so a localized
        update passes the old store first and the rebuilt chunks after.
        One gather per column puts the rows in vertex order.
        """
        none = np.empty(0, dtype=np.int64)
        parts = [(none, none, empty_columns()), *chunks]
        arrived = np.concatenate([np.asarray(v, dtype=np.int64) for v, _, _ in parts])
        arrived_sizes = np.concatenate([sizes for _, sizes, _ in parts])
        size_of = np.zeros(num_tables, dtype=np.int64)
        start_of = np.zeros(num_tables, dtype=np.int64)
        size_of[arrived] = arrived_sizes
        start_of[arrived] = np.cumsum(arrived_sizes) - arrived_sizes
        rows = table_rows(start_of, size_of)
        return cls.from_columns(
            size_of,
            {
                name: np.concatenate([columns[name] for _, _, columns in parts])[rows]
                for name in COLUMNS
            },
        )

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def num_tables(self) -> int:
        return int(self.offsets.size - 1)

    @property
    def total_blocks(self) -> int:
        return int(self.offsets[-1])

    @property
    def sizes(self) -> np.ndarray:
        """Blocks per vertex (``len(table(v))`` for every ``v``)."""
        return np.diff(self.offsets)

    def nbytes(self) -> int:
        """Resident bytes of the columns (excludes the offset array)."""
        return sum(getattr(self, name).nbytes for name in COLUMNS)

    def resident_bytes(self) -> int | None:
        """Column bytes whose pages the OS page cache holds, read with
        ``mincore(2)``.  A resident page counts only its overlap with its
        own column, so this never exceeds :meth:`nbytes`.  ``None`` when
        the columns are in memory rather than mapped, or without ``mincore``.
        """
        import ctypes
        import mmap

        columns = self.column_arrays().values()
        if not all(isinstance(col, np.memmap) for col in columns):
            return None
        try:
            mincore = ctypes.CDLL(None).mincore
        except (OSError, AttributeError):
            return None
        page, total = mmap.PAGESIZE, 0
        for col in columns:
            start = col.ctypes.data
            end = start + col.nbytes
            base = start - start % page  # where the column's mapping begins
            flags = (ctypes.c_ubyte * -((base - end) // page))()
            if mincore(ctypes.c_void_p(base), ctypes.c_size_t(end - base), flags):
                return None
            total += sum(min(end, base + (i + 1) * page) - max(start, base + i * page)
                         for i, flag in enumerate(flags) if flag & 1)
        return total

    @property
    def ends(self) -> np.ndarray:
        """Concatenated exclusive end codes, for :meth:`validate`."""
        return compute_ends(np.asarray(self.codes), np.asarray(self.levels))

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> FlatStore:
        """Check every table's invariants in one vectorized pass.

        Within each table the codes must be strictly increasing and
        the blocks disjoint, in one pass over the whole store so loads
        of untrusted files stay fast.
        Returns ``self`` for chaining; raises ``ValueError`` on a
        corrupt store.
        """
        codes = np.asarray(self.codes, dtype=np.int64)
        if codes.size > 1:
            ends = self.ends
            ok = (codes[1:] > codes[:-1]) & (ends[:-1] <= codes[1:])
            # Adjacent-row pairs that span a table boundary carry no
            # invariant; mask them out before complaining.
            boundaries = self.offsets[1:-1] - 1
            boundaries = boundaries[(boundaries >= 0) & (boundaries < ok.size)]
            ok[boundaries] = True
            if not ok.all():
                row = int(np.flatnonzero(~ok)[0])
                table = int(np.searchsorted(self.offsets, row, side="right")) - 1
                raise ValueError(
                    f"corrupt block store: rows {row}..{row + 1} "
                    f"(table {table}) are unsorted or overlapping"
                )
        return self

    # ------------------------------------------------------------------
    # One table, on demand
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.num_tables

    def __getitem__(self, v: int) -> BlockTable:
        """Vertex ``v``'s table: a view over its row range, built on
        each call and not kept."""
        v = range(len(self))[v]  # IndexError past the end ends iteration
        a, b = int(self.offsets[v]), int(self.offsets[v + 1])
        codes, levels, colors, lam_min, lam_max = self.columns
        return BlockTable.view(codes[a:b], levels[a:b], colors[a:b], lam_min[a:b], lam_max[a:b])

    # ------------------------------------------------------------------
    # Serialization payload
    # ------------------------------------------------------------------
    def column_arrays(self) -> dict[str, np.ndarray]:
        """The five columns keyed by canonical name (no copies)."""
        return {name: getattr(self, name) for name in COLUMNS}
