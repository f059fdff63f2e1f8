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

from bisect import bisect_right

import numpy as np

#: Column names in canonical order, shared by the build kernel's
#: chunks, the store and save/load.
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
    """One vertex's sorted, disjoint Morton blocks: five ``memoryview``
    slices, :attr:`columns`, of a :class:`~repro.silc.store.FlatStore`'s
    columns.

    Nothing on a load or query path builds one: a probe bisects the
    store's own columns between the vertex's two offsets.  ``store[v]``
    (``index.tables[v]``) builds this view on demand, over the row
    range, for the code that inspects one table -- the maps in
    ``examples/`` and tests -- and keeps nothing; a load that built one
    per vertex kept ~1 160 B of heap per vertex (18.6 MB and ~100 ms at
    16 000 vertices).  Indexing a ``memoryview`` returns native ``int`` /
    ``float`` without copying a row, and a write to a column is what the
    next read sees.  A block's end code is
    ``codes[row] + (1 << 2 * levels[row])``.
    """

    __slots__ = ("columns",)

    @classmethod
    def view(cls, codes, levels, colors, lam_min, lam_max) -> BlockTable:
        """Zero-copy construction over columns already sorted and
        disjoint, as buffers of the canonical item types.  No check is
        made and no page of a mapped column is touched."""
        self = object.__new__(cls)
        self.columns = tuple(map(memoryview, (codes, levels, colors, lam_min, lam_max)))
        return self

    # The columns as numpy arrays over the same memory (no copy).
    codes = property(lambda self: np.asarray(self.columns[0]))
    levels = property(lambda self: np.asarray(self.columns[1]))
    colors = property(lambda self: np.asarray(self.columns[2]))
    lam_min = property(lambda self: np.asarray(self.columns[3]))
    lam_max = property(lambda self: np.asarray(self.columns[4]))

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
