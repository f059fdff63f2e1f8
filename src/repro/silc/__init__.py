"""SILC: the paper's core contribution.

Shortest-path maps, shortest-path quadtrees, the per-network
:class:`SILCIndex`, distance intervals and progressive refinement.
"""

from repro.silc.coloring import ShortestPathMap, shortest_path_map, shortest_path_maps
from repro.silc.index import SILCIndex
from repro.silc.intervals import DistanceInterval
from repro.silc.parallel import (
    available_workers,
    parallel_block_columns,
    resolve_workers,
)
from repro.silc.proximal import BeyondHorizonError, ProximalSILCIndex
from repro.silc.refinement import RefinableDistance, RefinementCounter
from repro.silc.sp_quadtree import SPQuadtreeBuilder, choose_grid_order
from repro.silc.store import FlatStore
from repro.silc.updates import affected_sources, diff_edges, update_index

__all__ = [
    "ShortestPathMap",
    "shortest_path_map",
    "shortest_path_maps",
    "SILCIndex",
    "ProximalSILCIndex",
    "BeyondHorizonError",
    "DistanceInterval",
    "FlatStore",
    "RefinableDistance",
    "RefinementCounter",
    "SPQuadtreeBuilder",
    "choose_grid_order",
    "available_workers",
    "parallel_block_columns",
    "resolve_workers",
    "update_index",
    "affected_sources",
    "diff_edges",
]
