"""World-coordinate <-> quadtree-grid embeddings.

The paper embeds the spatial network in a ``2^q x 2^q`` grid before
building shortest-path quadtrees.  :class:`GridEmbedding` owns that
mapping: it scales world coordinates into grid cells, guarantees every
vertex lands strictly inside the grid, and converts Morton blocks back
to world-space rectangles for distance bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.geometry.morton import (
    MAX_ORDER,
    block_rect,
    morton_decode_array,
    morton_encode_array,
)
from repro.geometry.point import Point
from repro.geometry.rect import Rect

#: ``1 << level`` for every block level: a block's side in cells.
_SIDES = np.left_shift(1, np.arange(MAX_ORDER + 1), dtype=np.int64)
_SIDES.flags.writeable = False


@dataclass(frozen=True)
class GridEmbedding:
    """An affine map from a world bounding box onto a ``2^order`` grid.

    Parameters
    ----------
    bounds:
        World-space bounding box of the embedded data.  A small margin
        is added automatically so boundary points do not fall on the
        last cell edge.
    order:
        Grid order ``q``; the grid has ``2**q`` cells per side.
    """

    bounds: Rect
    order: int

    def __post_init__(self) -> None:
        if not (1 <= self.order <= MAX_ORDER):
            raise ValueError(f"grid order must be in [1, {MAX_ORDER}]: {self.order}")
        if self.bounds.width <= 0 or self.bounds.height <= 0:
            raise ValueError("embedding bounds must have positive area")

    @property
    def cells_per_side(self) -> int:
        return 1 << self.order

    # Computed once: every bound column and block rectangle reads them.
    @cached_property
    def cell_width(self) -> float:
        return self.bounds.width / self.cells_per_side

    @cached_property
    def cell_height(self) -> float:
        return self.bounds.height / self.cells_per_side

    @cached_property
    def cell_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """World ``x`` and ``y`` of every cell edge ``0 .. cells_per_side``,
        as :meth:`block_world_rect` computes them (``min + i * size``):
        a block's bounds are four lookups in these."""
        cells = np.arange(self.cells_per_side + 1, dtype=np.float64)
        edges = (
            self.bounds.xmin + cells * self.cell_width,
            self.bounds.ymin + cells * self.cell_height,
        )
        for edge in edges:  # shared by every bound column: read-only
            edge.flags.writeable = False
        return edges

    # ------------------------------------------------------------------
    # Point -> cell
    # ------------------------------------------------------------------
    def cell_of(self, p: Point) -> tuple[int, int]:
        """Grid cell ``(cx, cy)`` containing a world point (clamped)."""
        n = self.cells_per_side
        cx = int((p.x - self.bounds.xmin) / self.bounds.width * n)
        cy = int((p.y - self.bounds.ymin) / self.bounds.height * n)
        return (min(max(cx, 0), n - 1), min(max(cy, 0), n - 1))

    def cells_of_array(self, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`cell_of` over coordinate arrays."""
        n = self.cells_per_side
        cx = ((np.asarray(xs) - self.bounds.xmin) / self.bounds.width * n).astype(np.int64)
        cy = ((np.asarray(ys) - self.bounds.ymin) / self.bounds.height * n).astype(np.int64)
        np.clip(cx, 0, n - 1, out=cx)
        np.clip(cy, 0, n - 1, out=cy)
        return cx, cy

    def morton_of_array(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Morton codes of the cells containing each world point."""
        cx, cy = self.cells_of_array(xs, ys)
        return morton_encode_array(cx, cy)

    # ------------------------------------------------------------------
    # Block -> world rectangle
    # ------------------------------------------------------------------
    def block_world_rect(self, code: int, level: int) -> Rect:
        """World-space rectangle covered by a Morton block."""
        cells = block_rect(code, level)
        cw = self.cell_width
        ch = self.cell_height
        return Rect(
            self.bounds.xmin + cells.xmin * cw,
            self.bounds.ymin + cells.ymin * ch,
            self.bounds.xmin + cells.xmax * cw,
            self.bounds.ymin + cells.ymax * ch,
        )

    def block_world_bounds_array(
        self, codes: np.ndarray, levels: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized :meth:`block_world_rect` over many blocks.

        Returns ``(xmin, ymin, xmax, ymax)`` float arrays: lookups in
        :attr:`cell_edges`, which hold the scalar path's arithmetic (and
        therefore bit-identical bounds).
        """
        cx, cy = morton_decode_array(codes, self.order)
        side = _SIDES[np.asarray(levels, dtype=np.intp)]
        xe, ye = self.cell_edges
        return xe[cx], ye[cy], xe[cx + side], ye[cy + side]

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def for_points(
        xs: np.ndarray, ys: np.ndarray, order: int, margin: float = 1e-9
    ) -> GridEmbedding:
        """Embedding whose bounds enclose the given points.

        A relative ``margin`` widens the box so that the maximum
        coordinate maps strictly inside the final cell.
        """
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.size == 0:
            raise ValueError("cannot build an embedding for zero points")
        xmin, xmax = float(xs.min()), float(xs.max())
        ymin, ymax = float(ys.min()), float(ys.max())
        span = max(xmax - xmin, ymax - ymin, 1e-12)
        pad = span * max(margin, 1e-12)
        return GridEmbedding(
            Rect(xmin - pad, ymin - pad, xmin - pad + span + 2 * pad, ymin - pad + span + 2 * pad),
            order,
        )
