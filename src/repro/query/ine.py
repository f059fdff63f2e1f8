"""INE: Incremental Network Expansion (Papadias et al., VLDB 2003).

The paper's principal baseline (p.25): "really Dijkstra's algorithm
with a buffer L containing the k nearest neighbors seen so far in
terms of network distance".  The search ball grows around the query
until the unexplored frontier lies farther than the current k-th
neighbor, at which point the buffer is provably complete.

Its worst case -- and the reason SILC wins -- is that it must visit
*every edge closer to the query than the k-th neighbor* (p.26), and
probes the object index at each settled vertex.
"""

from __future__ import annotations

import math

from repro.network.dijkstra import IncrementalDijkstra
from repro.objects.index import ObjectIndex
from repro.objects.model import VertexPosition
from repro.query.location import resolve_location, same_edge_direct, source_anchors
from repro.query.results import KNNResult, Neighbor
from repro.query.stats import QueryStats, counted_clock
from repro.silc.intervals import DistanceInterval


def ine_knn(object_index: ObjectIndex, query, k: int, storage=None) -> KNNResult:
    """The k nearest objects by incremental network expansion.

    Exact distances, sorted output.  Needs only the network and the
    object index -- no precomputed structure (that is its selling
    point, and its per-query cost).  Pass a
    :class:`~repro.storage.NetworkStorageModel` as ``storage`` to
    charge each settled vertex a page access through the LRU buffer,
    as in the paper's disk-resident setup.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    t_start = counted_clock()
    stats = QueryStats()
    network = object_index.network
    position = resolve_location(network, query)
    io_before = storage.stats if storage is not None else None

    # Edge(-part) objects become reachable when either endpoint settles.
    edge_candidates = object_index.edge_candidates

    # Objects reachable without passing through a vertex: those at a
    # vertex query itself, or downstream on an edge query's own edge.
    best: dict[int, float]
    if isinstance(position, VertexPosition):
        best = dict.fromkeys(object_index.objects_at_vertex(position.vertex), 0.0)
    else:
        best = {
            obj.oid: direct
            for obj in object_index.edge_objects
            if (direct := same_edge_direct(network, position, obj.position)) is not None
        }

    def kth_best() -> float:
        if len(best) < k:
            return math.inf
        return sorted(best.values())[k - 1]

    expansion = IncrementalDijkstra(network, seeds=source_anchors(network, position))
    while True:
        frontier = expansion.next_frontier_distance()
        if frontier > kth_best() or math.isinf(frontier):
            break
        settled = expansion.settle_next()
        if settled is None:
            break
        vertex, dist = settled
        if storage is not None:
            storage.touch_vertex(vertex)
        stats.index_probes += 1
        for oid in object_index.objects_at_vertex(vertex):
            if dist < best.get(oid, math.inf):
                best[oid] = dist
        for oid, extra in edge_candidates.get(vertex, ()):
            if dist + extra < best.get(oid, math.inf):
                best[oid] = dist + extra

    stats.settled = expansion.stats.settled
    stats.relaxed = expansion.stats.relaxed
    stats.max_queue = stats.settled  # frontier heap scales with the ball

    ranked = sorted(best.items(), key=lambda item: (item[1], item[0]))[:k]
    neighbors = [
        Neighbor(oid=oid, interval=DistanceInterval.exact(d), distance=d)
        for oid, d in ranked
    ]
    if io_before is not None:
        delta = storage.stats.delta_since(io_before)
        stats.io_accesses = delta.accesses
        stats.io_misses = delta.misses
        stats.io_time = delta.io_time(storage.miss_latency)
    stats.elapsed = counted_clock() - t_start
    if neighbors:
        stats.dk_final = neighbors[-1].distance
    return KNNResult(neighbors=neighbors, stats=stats, ordered=True)
