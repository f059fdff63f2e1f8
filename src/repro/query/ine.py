"""INE: Incremental Network Expansion (Papadias et al., VLDB 2003).

The paper's principal baseline (p.25): "really Dijkstra's algorithm
with a buffer L containing the k nearest neighbors seen so far in
terms of network distance".  The search ball grows around the query
until the unexplored frontier lies farther than the current k-th
neighbor, at which point the buffer is provably complete.

Its worst case -- and the reason SILC wins -- is that it must visit
*every edge closer to the query than the k-th neighbor* (p.26), and
probes the object index at each settled vertex.  That ball is all it
costs: the expansion runs in one frame over the network's adjacency,
and its state (distances, heap, buffer) holds only what the ball reached.
"""

from __future__ import annotations

import heapq
import math

from repro.objects.index import ObjectIndex
from repro.objects.model import VertexPosition
from repro.query.location import resolve_location, same_edge_direct, source_anchors
from repro.query.results import KNNResult, exact_result
from repro.query.stats import QueryStats, counted_clock


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
    network = object_index.network
    position = resolve_location(network, query)
    io_before = storage.stats if storage is not None else None
    touch = storage.touch_vertex if storage is not None else None
    adj, inf = network.out_edges, math.inf
    # Read at each settled vertex: the objects on it, and the edge(-part)
    # objects reached through it.
    vertex_objects, edge_candidates = object_index.vertex_objects, object_index.edge_candidates

    # Objects reachable without passing through a vertex: downstream on
    # an edge query's own edge.  (A vertex query settles its vertex
    # first, at 0, and meets the objects on it there.)
    best: dict[int, float] = {}
    if isinstance(position, VertexPosition):
        network.check_vertex(position.vertex)
    else:
        best = {
            obj.oid: direct
            for obj in object_index.edge_objects
            if (direct := same_edge_direct(network, position, obj.position)) is not None
        }
    kth = sorted(best.values())[k - 1] if len(best) >= k else inf

    # Tentative distances of the vertices reached.  Pushes only lower a
    # distance and weights are positive: an entry popped above its
    # vertex's distance is stale, and no vertex settles twice.
    dist: dict[int, float] = {}
    heap: list[tuple[float, int]] = []
    heappop, heappush = heapq.heappop, heapq.heappush
    for v, offset in source_anchors(network, position):
        if offset < dist.get(v, inf):
            dist[v] = offset
            heappush(heap, (offset, v))
    settled = relaxed = 0
    # Settle while the frontier is within the k-th best: a tie at the
    # k-th distance is still expanded.
    while heap:
        d, u = heappop(heap)
        if d > dist[u]:
            continue
        if d > kth:
            break
        settled += 1
        if touch is not None:
            touch(u)
        improved = False
        for oid in vertex_objects.get(u, ()):
            if d < best.get(oid, inf):
                best[oid] = d
                improved = True
        for oid, extra in edge_candidates.get(u, ()):
            if d + extra < best.get(oid, inf):
                best[oid] = d + extra
                improved = True
        if improved and len(best) >= k:
            kth = sorted(best.values())[k - 1]
        nbrs = adj[u]
        relaxed += len(nbrs)
        for v, w in nbrs:
            nd = d + w
            if nd < dist.get(v, inf):
                dist[v] = nd
                heappush(heap, (nd, v))

    # One object-index probe per settled vertex; the heap scales with the ball.
    stats = QueryStats(settled=settled, relaxed=relaxed, index_probes=settled, max_queue=settled)
    ranked = sorted(zip(best.values(), best.keys()))[:k]
    return exact_result(ranked, stats, t_start, storage, io_before)
