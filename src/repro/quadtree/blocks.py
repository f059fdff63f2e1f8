"""Sorted Morton-block tables.

A shortest-path quadtree is stored as a flat table of disjoint Morton
blocks sorted by code.  Each block carries the *color* (the first-hop
vertex shared by every vertex in the block) and the ``[lambda_min,
lambda_max]`` interval of network/Euclidean distance ratios the paper
attaches to every block for progressive refinement.

The table is columnar (parallel numpy arrays) because a SILC index
holds one table per vertex -- tens of thousands of tables -- and
Python object overhead per block would dwarf the actual data.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from repro.geometry.morton import block_cells


@dataclass(frozen=True, slots=True)
class MortonBlock:
    """One decoded block row, for inspection and tests."""

    code: int
    level: int
    color: int
    lam_min: float
    lam_max: float

    @property
    def cells(self) -> int:
        return block_cells(self.level)

    @property
    def code_end(self) -> int:
        return self.code + self.cells


#: The plain-list mirror of a table's columns, in this order:
#: codes, exclusive end codes, colors, lam_min, lam_max.
Mirror = tuple[list[int], list[int], list[int], list[float], list[float]]


def compute_ends(codes: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Exclusive end code of each block: ``code + 4**level``."""
    return codes + (np.int64(1) << (2 * levels.astype(np.int64)))


class BlockTable:
    """Immutable sorted collection of disjoint Morton blocks.

    Supports the two operations the SILC framework performs at query
    time: point location of a vertex's grid cell (binary search) and
    retrieval of every block overlapping a code range (for bounding
    object-index blocks).

    A table either owns its five columns (the validating constructor)
    or is a zero-copy *view* over slices of a shared columnar store
    (:meth:`view`, used by :class:`repro.silc.store.FlatStore` so tens
    of thousands of per-vertex tables share one set of arrays).
    """

    __slots__ = (
        "codes",
        "levels",
        "colors",
        "lam_min",
        "lam_max",
        "_ends",
        "mirror",
    )

    def __init__(
        self,
        codes: np.ndarray,
        levels: np.ndarray,
        colors: np.ndarray,
        lam_min: np.ndarray,
        lam_max: np.ndarray,
    ) -> None:
        self.codes = np.asarray(codes, dtype=np.int64)
        self.levels = np.asarray(levels, dtype=np.int8)
        self.colors = np.asarray(colors, dtype=np.int32)
        self.lam_min = np.asarray(lam_min, dtype=np.float64)
        self.lam_max = np.asarray(lam_max, dtype=np.float64)
        n = self.codes.size
        if not (
            self.levels.size == n
            and self.colors.size == n
            and self.lam_min.size == n
            and self.lam_max.size == n
        ):
            raise ValueError("block table columns must have equal length")
        self._ends = compute_ends(self.codes, self.levels)
        if n > 1:
            if not np.all(np.diff(self.codes) > 0):
                raise ValueError("block codes must be strictly increasing")
            if not np.all(self._ends[:-1] <= self.codes[1:]):
                raise ValueError("blocks must be disjoint")
        #: Lazily built plain-list mirror ``(codes, ends, colors,
        #: lam_min, lam_max)``, or ``None`` before the first probe.
        #: Bisect on a Python list is several times faster than
        #: np.searchsorted on the tiny arrays involved, and point
        #: location is the hottest operation in the library (one per
        #: refinement step) -- the index's probe reads this directly.
        self.mirror: Mirror | None = None

    @classmethod
    def view(
        cls,
        codes: np.ndarray,
        levels: np.ndarray,
        colors: np.ndarray,
        lam_min: np.ndarray,
        lam_max: np.ndarray,
        ends: np.ndarray | None = None,
    ) -> BlockTable:
        """Trusted zero-copy construction over pre-validated columns.

        Skips dtype coercion and the sortedness/disjointness checks --
        the columns must already satisfy the invariants (they come out
        of :func:`repro.quadtree.region.build_region_blocks` or a
        round-tripped save).  ``ends`` may pass a precomputed end-code
        slice; when omitted it is derived lazily on first probe, which
        keeps mmap-backed loads from faulting in every column page.
        """
        self = object.__new__(cls)
        self.codes = codes
        self.levels = levels
        self.colors = colors
        self.lam_min = lam_min
        self.lam_max = lam_max
        self._ends = ends
        self.mirror = None
        return self

    @property
    def ends(self) -> np.ndarray:
        """Exclusive end codes, derived lazily for view tables."""
        if self._ends is None:
            self._ends = compute_ends(self.codes, self.levels)
        return self._ends

    def build_mirror(self) -> Mirror:
        """Build (once) and return the list mirror of the columns.

        Published with a single assignment: concurrent query workers
        may race into this lazy initialization, and none may see a
        partly built mirror.
        """
        mirror = self.mirror
        if mirror is None:
            mirror = self.mirror = (
                self.codes.tolist(),
                self.ends.tolist(),
                self.colors.tolist(),
                self.lam_min.tolist(),
                self.lam_max.tolist(),
            )
        return mirror

    def lookup(self, cell_code: int) -> tuple[int, float, float, int] | None:
        """Fused point location: ``(color, lam_min, lam_max, row)``.

        Returns plain Python scalars, or ``None`` when no block
        contains the cell.
        """
        codes, ends, colors, lam_min, lam_max = self.mirror or self.build_mirror()
        i = bisect_right(codes, cell_code) - 1
        if i >= 0 and cell_code < ends[i]:
            return colors[i], lam_min[i], lam_max[i], i
        return None

    def __len__(self) -> int:
        return int(self.codes.size)

    def block(self, index: int) -> MortonBlock:
        """Decode row ``index`` into a :class:`MortonBlock`."""
        return MortonBlock(
            code=int(self.codes[index]),
            level=int(self.levels[index]),
            color=int(self.colors[index]),
            lam_min=float(self.lam_min[index]),
            lam_max=float(self.lam_max[index]),
        )

    def iter_blocks(self):
        """Yield every row as a :class:`MortonBlock`."""
        for i in range(len(self)):
            yield self.block(i)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def locate(self, cell_code: int) -> int:
        """Index of the block containing ``cell_code``, or ``-1``.

        Binary search over the sorted starts; the disjointness
        invariant makes the candidate unique.
        """
        hit = self.lookup(cell_code)
        return -1 if hit is None else hit[3]

    def overlapping(self, lo: int, hi: int) -> range:
        """Row indices of blocks intersecting the code range ``[lo, hi)``.

        Disjoint sorted blocks intersecting an interval form a
        contiguous run, so the result is a :class:`range`.
        """
        if hi <= lo:
            return range(0)
        codes, ends, _, _, _ = self.mirror or self.build_mirror()
        start = bisect_right(codes, lo) - 1
        if start < 0 or ends[start] <= lo:
            start += 1
        end = bisect_left(codes, hi)
        return range(start, end)

    def total_cells(self) -> int:
        """Grid cells covered by all blocks (coverage diagnostics)."""
        return int((self.ends - self.codes).sum())

    def storage_bytes(self, record_bytes: int = 16) -> int:
        """Simulated on-disk footprint of the table."""
        return len(self) * record_bytes
