"""Planar geometry substrate for the SILC reproduction.

The spatial-network vertices live in the Euclidean plane.  Every higher
layer of the library (quadtrees, SILC distance intervals, the object
index) is expressed in terms of the primitives defined here:

* :class:`~repro.geometry.point.Point` -- immutable 2-D points with the
  Euclidean metric,
* :class:`~repro.geometry.rect.Rect` -- axis-aligned rectangles with
  the MINDIST point-to-rectangle bound,
* :mod:`~repro.geometry.morton` -- Morton (Z-order) codes and the
  Morton blocks of shortest-path quadtrees,
* :class:`~repro.geometry.grid.GridEmbedding` -- the mapping between
  world coordinates and the ``2^q x 2^q`` quadtree grid.
"""

from repro.geometry.point import Point

__all__ = ["Point"]
