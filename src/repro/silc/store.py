"""The flat columnar SILC store.

A SILC index holds one Morton-block table per network vertex -- tens
of thousands of tables.  Materializing each as five small numpy arrays
(the pre-flat layout) costs an allocation, a validation pass and a
Python object per vertex, and forces every load to reassemble all of
them.  :class:`FlatStore` keeps the whole index in **one** set of
concatenated ``codes/levels/colors/lam_min/lam_max`` columns plus a
per-vertex offset array -- exactly the layout ``SILCIndex.save`` has
always written to disk -- and hands out per-vertex
:class:`~repro.quadtree.blocks.BlockTable` *views* over slices of the
shared columns.

The layout is what makes the rest of the zero-copy pipeline possible:

* a build (serial or pooled) hands over whole chunks of columns and
  the store assembles them with one gather per column;
* ``save`` is a plain dump of the columns, one ``.npy`` file each,
  which ``load`` can open with ``mmap_mode="r"`` so cold start touches
  O(1) bytes instead of O(total blocks) -- the one layout on disk: a
  shard tier is N more processes mapping these same files, so the OS
  page cache holds the index once however many serve it;
* every view is backed by the same memory, so the resident footprint
  is the column bytes, once -- and stays that: a probe bisects and
  indexes a ``memoryview`` of the column itself, so querying keeps no
  Python object per block.
"""

from __future__ import annotations

from itertools import pairwise
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

    The store keeps one ``memoryview`` per column (O(1), read-only over
    a mapped file) and every table it hands out is five slices of
    those.  Views do not pickle and nothing pickles a store: the build
    pool ships numpy chunks and shard workers map the index directory.
    """

    __slots__ = (
        "offsets",
        "codes",
        "levels",
        "colors",
        "lam_min",
        "lam_max",
        "_views",
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
        self._views = tuple(map(memoryview, columns.values()))

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

    @classmethod
    def empty(cls, num_vertices: int) -> FlatStore:
        return cls(np.zeros(num_vertices + 1, dtype=np.int64), **empty_columns())

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
        the blocks disjoint -- exactly what the validating
        :class:`BlockTable` constructor checks per table, amortized
        over the whole store so loads of untrusted files stay fast.
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
    # Views
    # ------------------------------------------------------------------
    def table(self, v: int) -> BlockTable:
        """A zero-copy :class:`BlockTable` view of vertex ``v``'s rows."""
        lo = int(self.offsets[v])
        hi = int(self.offsets[v + 1])
        return BlockTable.view(*[view[lo:hi] for view in self._views])

    def views(self) -> list[BlockTable]:
        """Per-vertex view tables; O(num_vertices), no column page read."""
        codes, levels, colors, lam_min, lam_max = self._views
        view = BlockTable.view
        return [
            view(codes[a:b], levels[a:b], colors[a:b], lam_min[a:b], lam_max[a:b])
            for a, b in pairwise(self.offsets.tolist())
        ]

    # ------------------------------------------------------------------
    # Serialization payload
    # ------------------------------------------------------------------
    def column_arrays(self) -> dict[str, np.ndarray]:
        """The five columns keyed by canonical name (no copies)."""
        return {name: getattr(self, name) for name in COLUMNS}
