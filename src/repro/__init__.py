"""repro: Scalable Network Distance Browsing in Spatial Databases.

A faithful, self-contained reproduction of the SILC framework and kNN
algorithms of Samet, Sankaranarayanan & Alborzi (SIGMOD 2008, best
paper).  The package builds shortest-path quadtrees over a spatial
network, answers k-nearest-neighbor queries by network distance with
progressive refinement, and ships the baselines (INE, IER) and the
storage/I-O model needed to regenerate every figure of the paper's
evaluation.

Quick start::

    from repro import (
        road_like_network, SILCIndex, ObjectIndex, QueryEngine, knn,
    )
    from repro.datasets import random_vertex_objects

    net = road_like_network(1000, seed=7)
    # workers=0 fans the per-source precompute across every available
    # CPU (workers=N for an explicit pool size); the parallel build is
    # byte-identical to the serial one.
    index = SILCIndex.build(net, workers=0)
    objects = random_vertex_objects(net, density=0.05, seed=7)
    object_index = ObjectIndex(net, objects, index.embedding)

    # One-off query:
    result = knn(index, object_index, query=0, k=5, exact=True)
    for neighbor in result.neighbors:
        print(neighbor.oid, neighbor.distance)

    # Serving many queries: QueryEngine caches resolved locations,
    # keeps one (warm) storage simulator attached, and aggregates the
    # per-query stats into one batch-level QueryStats.
    engine = QueryEngine(index, object_index, cache_fraction=0.05)
    batch = engine.knn_batch(range(100), k=5, variant="knn_m")
    print(len(batch), "queries,", batch.stats.refinements, "refinements")
"""

from repro.engine import BatchResult, QueryEngine
from repro.errors import (
    CorruptIndexError,
    DeadlineExceeded,
    WorkerDied,
)
from repro.faults import FaultInjector
from repro.geometry import GridEmbedding, Point, Rect
from repro.network import (
    SpatialNetwork,
    astar_path,
    grid_network,
    network_distance,
    random_planar_network,
    road_like_network,
    shortest_path,
    shortest_path_tree,
)
from repro.objects import (
    EdgePosition,
    ObjectIndex,
    ObjectSet,
    SpatialObject,
    VertexPosition,
)
from repro.query import (
    KNNResult,
    Neighbor,
    QueryStats,
    aggregate_nn,
    approximate_knn,
    browse,
    distance_join,
    ier_knn,
    ine_knn,
    inn,
    knn,
    knn_i,
    knn_m,
    range_query,
)
from repro.silc import (
    BeyondHorizonError,
    DistanceInterval,
    ProximalSILCIndex,
    RefinableDistance,
    SILCIndex,
    shortest_path_map,
    update_index,
)
from repro.storage import LRUCache, PageLayout, StorageSimulator

__version__ = "1.0.0"

__all__ = [
    "Point",
    "Rect",
    "GridEmbedding",
    "SpatialNetwork",
    "grid_network",
    "random_planar_network",
    "road_like_network",
    "shortest_path",
    "shortest_path_tree",
    "astar_path",
    "network_distance",
    "SILCIndex",
    "DistanceInterval",
    "RefinableDistance",
    "shortest_path_map",
    "ObjectSet",
    "ObjectIndex",
    "SpatialObject",
    "VertexPosition",
    "EdgePosition",
    "knn",
    "inn",
    "knn_i",
    "knn_m",
    "ine_knn",
    "ier_knn",
    "browse",
    "range_query",
    "approximate_knn",
    "aggregate_nn",
    "distance_join",
    "ProximalSILCIndex",
    "BeyondHorizonError",
    "update_index",
    "KNNResult",
    "Neighbor",
    "QueryEngine",
    "BatchResult",
    "QueryStats",
    "StorageSimulator",
    "LRUCache",
    "PageLayout",
    "CorruptIndexError",
    "DeadlineExceeded",
    "WorkerDied",
    "FaultInjector",
    "__version__",
]
