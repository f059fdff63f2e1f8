"""Sorted Morton-block tables.

A shortest-path quadtree is stored as a flat table of disjoint Morton
blocks sorted by code.  Each block carries the *color* (the first edge
of the shortest path to every vertex in the block, as its rank in the
table vertex's out-edge list) and the ``[lambda_min, lambda_max]``
interval of network/Euclidean distance ratios the paper attaches to
every block for progressive refinement.

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

#: Colour of a block past a proximal horizon: no shortest path is stored.
BEYOND = -1
#: Colour of the block holding the table's own vertex (it has no first edge).
OWN_VERTEX = -2

#: Canonical dtype per column.  ``MAX_ORDER`` 16 keeps every code below
#: 2**32, the lambdas are float16 rounded outward by
#: :func:`narrow_lambda`, and a colour is the rank of an out-edge of
#: the table's vertex: int8 while no vertex has more than 127 out-edges
#: (:func:`column_dtypes` widens it for a network that has one).
COLUMN_DTYPES = {
    "codes": np.uint32,
    "levels": np.int8,
    "colors": np.int8,
    "lam_min": np.float16,
    "lam_max": np.float16,
}


def column_dtypes(max_out_degree: int) -> dict[str, type]:
    """The column dtypes of an index over a network whose largest
    out-degree is ``max_out_degree``: :data:`COLUMN_DTYPES`, with int16
    colours when some rank does not fit int8."""
    if max_out_degree <= np.iinfo(np.int8).max:
        return COLUMN_DTYPES
    if max_out_degree > np.iinfo(np.int16).max:
        raise ValueError(
            f"a vertex has {max_out_degree} out-edges; a colour holds at most "
            f"{np.iinfo(np.int16).max}"
        )
    return {**COLUMN_DTYPES, "colors": np.int16}


#: Bytes of one Morton block, 10 (11 with int16 colours): what the
#: columns take on disk and what the page simulator packs into a page.
RECORD_BYTES = sum(np.dtype(dtype).itemsize for dtype in COLUMN_DTYPES.values())


def narrow_lambda(
    lam_min: np.ndarray, lam_max: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """float16 copies of lambda bounds: ``lam_min`` rounded toward -inf,
    ``lam_max`` toward +inf.

    The cast rounds to nearest; every element it rounded the wrong way
    steps back one float16 ulp with ``nextafter``.  The stored interval
    therefore contains the float64 one, at most one ulp (2**-10
    relative) wider on each side, so every bound drawn from it stays
    sound.  A value exact in float16 comes back unchanged; one beyond
    float16's range (65504) becomes ``inf`` on the outer side and 65504
    on the inner side, and one below half the smallest subnormal
    becomes 0 on the inner side.
    """
    lo = np.asarray(lam_min, dtype=np.float64)
    hi = np.asarray(lam_max, dtype=np.float64)
    # Past float16's range both the cast and the step overflow, on purpose.
    with np.errstate(over="ignore"):
        lo16 = lo.astype(np.float16)
        hi16 = hi.astype(np.float16)
        down = lo16 > lo
        lo16[down] = np.nextafter(lo16[down], np.float16(-np.inf))
        up = hi16 < hi
        hi16[up] = np.nextafter(hi16[up], np.float16(np.inf))
    return lo16, hi16


#: The float16 decode ladder: ``LAMBDA_LADDER[bits]`` is the float
#: value of the float16 bit pattern ``bits``, for every one of the
#: 65 536 patterns -- negatives, infinities and NaNs included, so a
#: corrupt lambda decodes to what it is and the typed bound checks
#: refuse it.  A ``memoryview`` of float16 items (format ``e``) cannot
#: be indexed, so a probe reads a lambda column's uint16 bits and then
#: ``LAMBDA_LADDER[bits[row]]``.  It is a read-only ``memoryview`` of
#: float32 (float16 widens to it exactly): 256 KiB, made once per
#: process, where a list of Python floats would hold 2 MiB in every
#: serving process and shard worker.
LAMBDA_LADDER = memoryview(
    np.arange(1 << 16, dtype=np.uint16).view(np.float16).astype(np.float32)
).toreadonly()


def compute_ends(codes: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Exclusive end code of each block: ``code + 4**level``."""
    return codes + (np.int64(1) << (2 * levels.astype(np.int64)))


class BlockTable:
    """One vertex's sorted, disjoint Morton blocks: five ``memoryview``
    slices, :attr:`columns`, of a :class:`~repro.silc.store.FlatStore`'s
    columns (the lambdas as their uint16 bit patterns, decoded through
    :data:`LAMBDA_LADDER`).

    Nothing on a load or query path builds one: a probe bisects the
    store's own columns between the vertex's two offsets.  ``store[v]``
    (``index.tables[v]``) builds this view on demand, over the row
    range, for the code that inspects one table -- the maps in
    ``examples/`` and tests -- and keeps nothing; a load that built one
    per vertex kept ~1 160 B of heap per vertex (18.6 MB and ~100 ms at
    16 000 vertices).  Indexing a ``memoryview`` returns native ``int``
    without copying a row, a lambda's float is ``LAMBDA_LADDER[bits]``,
    and a write to a column is what the next read sees.  A block's end code
    is ``codes[row] + (1 << 2 * levels[row])``.
    """

    __slots__ = ("columns",)

    @classmethod
    def view(cls, codes, levels, colors, lam_min, lam_max) -> BlockTable:
        """Zero-copy construction over columns already sorted and
        disjoint, as buffers of the canonical item types, the lambdas as
        their uint16 bits (a float16 array's ``.view(np.uint16)``).  No
        check is made and no page of a mapped column is touched."""
        self = object.__new__(cls)
        self.columns = tuple(map(memoryview, (codes, levels, colors, lam_min, lam_max)))
        return self

    # The columns as numpy arrays over the same memory (no copy).
    codes = property(lambda self: np.asarray(self.columns[0]))
    levels = property(lambda self: np.asarray(self.columns[1]))
    colors = property(lambda self: np.asarray(self.columns[2]))
    lam_min = property(lambda self: np.asarray(self.columns[3]).view(np.float16))
    lam_max = property(lambda self: np.asarray(self.columns[4]).view(np.float16))

    def lookup(self, cell_code: int) -> tuple[int, float, float, int] | None:
        """Fused point location: ``(color, lam_min, lam_max, row)``, the
        colour as stored (an out-edge rank, or negative).

        Returns plain Python scalars, or ``None`` when no block
        contains the cell.
        """
        codes, levels, colors, lam_min, lam_max = self.columns
        i = bisect_right(codes, cell_code) - 1
        if i >= 0 and cell_code < codes[i] + (1 << 2 * levels[i]):
            return colors[i], LAMBDA_LADDER[lam_min[i]], LAMBDA_LADDER[lam_max[i]], i
        return None

    def __len__(self) -> int:
        return len(self.columns[0])
