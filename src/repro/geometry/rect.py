"""Axis-aligned rectangles with distance queries.

Rectangles appear in two places in the reproduction:

* Morton blocks of a shortest-path quadtree decode to grid-aligned
  rectangles; the kNN algorithm needs the minimum Euclidean distance
  from the query point to (the intersection of) such rectangles to
  lower-bound network distances to object-index blocks.
* The PMR-style object index partitions space into rectangular blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.geometry.point import Point


@dataclass(frozen=True, slots=True)
class Rect:
    """A closed axis-aligned rectangle ``[xmin, xmax] x [ymin, ymax]``."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self) -> None:
        if self.xmin > self.xmax or self.ymin > self.ymax:
            raise ValueError(
                f"degenerate rectangle: ({self.xmin}, {self.ymin}, "
                f"{self.xmax}, {self.ymax})"
            )

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    # ------------------------------------------------------------------
    # Distances
    # ------------------------------------------------------------------
    def min_distance_to_point(self, p: Point) -> float:
        """Minimum Euclidean distance from ``p`` to the rectangle.

        Zero when ``p`` lies inside.  This is the classic MINDIST bound
        used by best-first spatial search (Hjaltason & Samet 1995).
        """
        return self.min_distance_to_point_xy(p.x, p.y)

    def min_distance_to_point_xy(self, x: float, y: float) -> float:
        """:meth:`min_distance_to_point` without the Point allocation.

        ``SILCIndex.block_lower_bound`` calls it for a block inside one
        table block; ``QueryHandle.block_bounds`` writes the same value
        out inline.
        """
        dx = max(self.xmin - x, 0.0, x - self.xmax)
        dy = max(self.ymin - y, 0.0, y - self.ymax)
        return math.hypot(dx, dy)
