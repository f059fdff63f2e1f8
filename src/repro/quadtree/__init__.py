"""Quadtrees: Morton-block tables, region builds, and the object index.

* :class:`BlockTable` / :class:`MortonBlock` -- the columnar storage
  format of shortest-path quadtrees,
* :func:`build_region_blocks` -- colored region-quadtree construction,
* :class:`PMRQuadtree` -- the spatial index over the object set ``S``.
"""

from repro.quadtree.blocks import BlockTable, MortonBlock
from repro.quadtree.region import build_region_blocks
from repro.quadtree.pmr import PMRNode, PMRQuadtree

__all__ = [
    "BlockTable",
    "MortonBlock",
    "build_region_blocks",
    "PMRQuadtree",
    "PMRNode",
]
