"""Sorted Morton-block tables.

A shortest-path quadtree is stored as a flat table of disjoint Morton
blocks sorted by code.  Each block carries the *color* (the first-hop
vertex shared by every vertex in the block) and the ``[lambda_min,
lambda_max]`` interval of network/Euclidean distance ratios the paper
attaches to every block for progressive refinement.

The table is columnar (five parallel buffers) because a SILC index
holds one table per vertex -- tens of thousands of tables -- and
Python object overhead per block would dwarf the actual data.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np

from repro.geometry.morton import MAX_ORDER, block_cells

#: Column names in canonical order, shared by the build kernel's
#: chunks, :class:`BlockTable` and save/load.
COLUMNS = ("codes", "levels", "colors", "lam_min", "lam_max")

#: Canonical dtype per column.  ``MAX_ORDER`` 16 keeps every code below
#: 2**32, and the lambdas are float32 rounded outward by
#: :func:`narrow_lambda`.
COLUMN_DTYPES = {
    "codes": np.uint32,
    "levels": np.int8,
    "colors": np.int32,
    "lam_min": np.float32,
    "lam_max": np.float32,
}

#: Bytes of one Morton block, 17: what the columns take on disk and what
#: the page simulator packs into a page.
RECORD_BYTES = sum(np.dtype(dtype).itemsize for dtype in COLUMN_DTYPES.values())


def narrow_lambda(
    lam_min: np.ndarray, lam_max: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """float32 copies of lambda bounds: ``lam_min`` rounded toward -inf,
    ``lam_max`` toward +inf.

    The cast rounds to nearest; every element it rounded the wrong way
    steps back one float32 ulp with ``nextafter``.  The stored interval
    therefore contains the float64 one, at most one ulp (2**-23
    relative) wider on each side, so every bound drawn from it stays
    sound.  A value exact in float32 comes back unchanged; one beyond
    float32's range becomes ``inf`` on the outer side and the largest
    finite float32 on the inner side.
    """
    lo = np.asarray(lam_min, dtype=np.float64)
    hi = np.asarray(lam_max, dtype=np.float64)
    with np.errstate(over="ignore"):
        lo32 = lo.astype(np.float32)
        hi32 = hi.astype(np.float32)
    down = lo32 > lo
    lo32[down] = np.nextafter(lo32[down], np.float32(-np.inf))
    up = hi32 < hi
    hi32[up] = np.nextafter(hi32[up], np.float32(np.inf))
    return lo32, hi32


def compute_ends(codes: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Exclusive end code of each block: ``code + 4**level``."""
    return codes + (np.int64(1) << (2 * levels.astype(np.int64)))


class BlockTable:
    """Immutable sorted collection of disjoint Morton blocks.

    Supports the two operations the SILC framework performs at query
    time: point location of a vertex's grid cell (binary search) and
    retrieval of every block overlapping a code range (for bounding
    object-index blocks).

    A table is five ``memoryview``s, :attr:`columns`, over arrays it
    owns (the validating constructor) or over slices of a shared,
    possibly mapped, columnar store (:meth:`view`, what
    :class:`repro.silc.store.FlatStore` hands out).  The validating
    constructor coerces to :data:`COLUMN_DTYPES`, the lambdas through
    :func:`narrow_lambda`.  The views *are*
    the probe structure: C ``bisect`` and indexing on a ``memoryview``
    return native ``int`` / ``float`` without copying a row, so there
    is no per-block Python object, nothing is built on first touch and
    a write to a column is what the next probe reads.  A block's end
    code is ``codes[row] + (1 << 2 * levels[row])``, taken at the one
    or two rows a probe inspects.
    """

    __slots__ = ("columns",)

    def __init__(
        self,
        codes: np.ndarray,
        levels: np.ndarray,
        colors: np.ndarray,
        lam_min: np.ndarray,
        lam_max: np.ndarray,
    ) -> None:
        codes = np.asarray(codes, dtype=np.int64)
        levels = np.asarray(levels, dtype=np.int8)
        if codes.size and not (0 <= codes.min() and codes.max() < block_cells(MAX_ORDER)):
            raise ValueError("block codes must lie inside the largest grid")
        arrays = tuple(
            np.asarray(column, dtype=COLUMN_DTYPES[name])
            for name, column in zip(
                COLUMNS, (codes, levels, colors, *narrow_lambda(lam_min, lam_max)), strict=True
            )
        )
        if any(a.shape != codes.shape for a in arrays):
            raise ValueError("block table columns must have equal length")
        # Order and disjointness are checked on the int64 codes: a
        # uint32 difference would wrap instead of going negative.
        if codes.size > 1:
            if not np.all(np.diff(codes) > 0):
                raise ValueError("block codes must be strictly increasing")
            if not np.all(compute_ends(codes, levels)[:-1] <= codes[1:]):
                raise ValueError("blocks must be disjoint")
        #: ``(codes, levels, colors, lam_min, lam_max)`` as memoryviews.
        self.columns = tuple(map(memoryview, arrays))

    @classmethod
    def view(cls, codes, levels, colors, lam_min, lam_max) -> BlockTable:
        """Trusted zero-copy construction over pre-validated columns.

        Takes the columns as buffers of the canonical item types (a
        store's ``memoryview`` slices, or arrays) and skips coercion
        and the sortedness/disjointness checks -- they must already
        hold (the columns come out of
        :func:`repro.quadtree.region.region_block_columns` or a
        round-tripped save).  No page of a mapped column is touched.
        """
        self = object.__new__(cls)
        self.columns = tuple(map(memoryview, (codes, levels, colors, lam_min, lam_max)))
        return self

    # The columns as numpy arrays over the same memory (no copy).
    codes = property(lambda self: np.asarray(self.columns[0]))
    levels = property(lambda self: np.asarray(self.columns[1]))
    colors = property(lambda self: np.asarray(self.columns[2]))
    lam_min = property(lambda self: np.asarray(self.columns[3]))
    lam_max = property(lambda self: np.asarray(self.columns[4]))

    @property
    def ends(self) -> np.ndarray:
        """Exclusive end codes (derived on every call; probes do not use it)."""
        return compute_ends(self.codes, self.levels)

    def lookup(self, cell_code: int) -> tuple[int, float, float, int] | None:
        """Fused point location: ``(color, lam_min, lam_max, row)``.

        Returns plain Python scalars, or ``None`` when no block
        contains the cell.
        """
        codes, levels, colors, lam_min, lam_max = self.columns
        i = bisect_right(codes, cell_code) - 1
        if i >= 0 and cell_code < codes[i] + (1 << 2 * levels[i]):
            return colors[i], lam_min[i], lam_max[i], i
        return None

    def __len__(self) -> int:
        return len(self.columns[0])

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def overlapping(self, lo: int, hi: int) -> range:
        """Row indices of blocks intersecting the code range ``[lo, hi)``.

        Disjoint sorted blocks intersecting an interval form a
        contiguous run, so the result is a :class:`range`.
        """
        if hi <= lo:
            return range(0)
        codes, levels = self.columns[:2]
        start = bisect_right(codes, lo) - 1
        if start < 0 or codes[start] + (1 << 2 * levels[start]) <= lo:
            start += 1
        end = bisect_left(codes, hi)
        return range(start, end)

    def storage_bytes(self, record_bytes: int = RECORD_BYTES) -> int:
        """Simulated on-disk footprint of the table."""
        return len(self) * record_bytes
