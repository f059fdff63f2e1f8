"""Quadtrees: Morton-block tables, region builds, and the object index.

* :mod:`~repro.quadtree.blocks` -- the columnar storage format of
  shortest-path quadtrees and :class:`BlockTable`, a one-vertex view,
* :mod:`~repro.quadtree.region` -- colored region-quadtree construction,
* :mod:`~repro.quadtree.pmr` -- the spatial index over the object set ``S``.
"""
