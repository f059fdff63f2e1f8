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

    # Many queries: QueryEngine caches resolved locations and
    # aggregates the per-query stats into one batch-level QueryStats
    # (what `repro serve` runs, with no page simulator).
    engine = QueryEngine(index, object_index)
    batch = engine.knn_batch(range(100), k=5, variant="knn_m")
    print(len(batch), "queries,", batch.stats.refinements, "refinements")

    # The paper's I/O cost model: an LRU holding 5 % of the index pages,
    # counted per query (io_accesses / io_misses) -- for experiments.
    paged = QueryEngine(index, object_index, cache_fraction=0.05)
    print(paged.knn(0, k=5).stats.io_misses, "page misses")
"""

import importlib
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.engine import QueryEngine
    from repro.network import road_like_network
    from repro.objects import ObjectIndex
    from repro.query import (
        aggregate_nn,
        approximate_knn,
        browse,
        distance_join,
        knn,
        range_query,
    )
    from repro.silc import SILCIndex, update_index

__version__ = "1.0.0"

__all__ = [
    "road_like_network",
    "SILCIndex",
    "ObjectIndex",
    "knn",
    "browse",
    "range_query",
    "approximate_knn",
    "aggregate_nn",
    "distance_join",
    "update_index",
    "QueryEngine",
    "__version__",
]

#: The module each public name is defined in.  ``import repro`` loads
#: none of them: a name's module is imported on its first use, so a
#: process that only generates or builds never loads the query engine,
#: the oracles or the serving stack.
_HOMES = {
    "road_like_network": "repro.network",
    "SILCIndex": "repro.silc",
    "update_index": "repro.silc",
    "ObjectIndex": "repro.objects",
    "knn": "repro.query",
    "browse": "repro.query",
    "range_query": "repro.query",
    "approximate_knn": "repro.query",
    "aggregate_nn": "repro.query",
    "distance_join": "repro.query",
    "QueryEngine": "repro.engine",
}


def __getattr__(name: str) -> Any:
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(home), name)
    globals()[name] = value
    return value
