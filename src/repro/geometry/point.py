"""Immutable 2-D points and the Euclidean metric.

The paper measures spatial ("as the crow flies") distance with the
ordinary Euclidean metric; all lambda-interval arithmetic in the SILC
framework divides network distance by this quantity, so a single shared
implementation keeps every layer consistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Point:
    """A point in the Euclidean plane.

    Instances are immutable and hashable so they can key dictionaries
    (e.g. vertex lookup tables) and be stored in sets.
    """

    x: float
    y: float

    def distance_to(self, other: Point) -> float:
        """Euclidean distance to ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def lerp(self, other: Point, t: float) -> Point:
        """Linear interpolation: ``self`` at ``t=0``, ``other`` at ``t=1``.

        Used to position edge objects a fraction ``t`` of the way along
        a road segment.
        """
        return Point(self.x + (other.x - self.x) * t, self.y + (other.y - self.y) * t)


def euclidean(ax: float, ay: float, bx: float, by: float) -> float:
    """Euclidean distance between raw coordinate pairs.

    A free function (rather than a method) so hot loops can avoid
    constructing :class:`Point` objects.
    """
    return math.hypot(ax - bx, ay - by)
