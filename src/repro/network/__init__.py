"""Spatial-network substrate: graphs, shortest paths, generators, I/O.

* :mod:`~repro.network.graph` -- :class:`SpatialNetwork`, the graph
  container everything runs on,
* :mod:`~repro.network.dijkstra` -- the instrumented search:
  Dijkstra, and A* through ``shortest_path(heuristic_scale=)``,
* :mod:`~repro.network.allpairs` -- the chunked all-pairs driver
  feeding the SILC precompute,
* the three generators and file I/O helpers.

The names re-exported here are the ones code outside the tests
imports from the package root.
"""

from repro.network.graph import SpatialNetwork
from repro.network.dijkstra import shortest_path
from repro.network.allpairs import distance_matrix
from repro.network.generators import (
    grid_network,
    random_planar_network,
    road_like_network,
)
from repro.network.io import load_text, save_text

__all__ = [
    "SpatialNetwork",
    "shortest_path",
    "distance_matrix",
    "grid_network",
    "random_planar_network",
    "road_like_network",
    "save_text",
    "load_text",
]
