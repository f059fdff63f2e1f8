"""Spatial-network substrate: graphs, shortest paths, generators, I/O.

The classes and functions re-exported here are the stable public
surface of the network layer:

* :class:`SpatialNetwork` -- the graph container everything runs on,
* :func:`shortest_path_tree` / :func:`shortest_path` /
  :class:`IncrementalDijkstra` -- instrumented Dijkstra,
* :func:`astar_path` -- exact point-to-point A*,
* :func:`all_pairs_rows` -- the chunked all-pairs driver feeding the
  SILC precompute,
* the three generators and file I/O helpers.
"""

from repro.network.errors import (
    DisconnectedNetwork,
    EdgeNotFound,
    GraphConstructionError,
    NetworkError,
    PathNotFound,
    VertexNotFound,
)
from repro.network.graph import SpatialNetwork
from repro.network.dijkstra import (
    DijkstraStats,
    IncrementalDijkstra,
    ShortestPathTree,
    shortest_path,
    shortest_path_tree,
)
from repro.network.astar import astar_path, network_distance
from repro.network.allpairs import (
    all_pairs_rows,
    distance_matrix,
    first_hops_from_predecessors,
    single_source_row,
)
from repro.network.generators import (
    grid_network,
    random_planar_network,
    road_like_network,
)
from repro.network.io import load_text, save_text

__all__ = [
    "NetworkError",
    "GraphConstructionError",
    "VertexNotFound",
    "EdgeNotFound",
    "DisconnectedNetwork",
    "PathNotFound",
    "SpatialNetwork",
    "DijkstraStats",
    "ShortestPathTree",
    "shortest_path",
    "shortest_path_tree",
    "IncrementalDijkstra",
    "astar_path",
    "network_distance",
    "all_pairs_rows",
    "single_source_row",
    "first_hops_from_predecessors",
    "distance_matrix",
    "grid_network",
    "random_planar_network",
    "road_like_network",
    "save_text",
    "load_text",
]
