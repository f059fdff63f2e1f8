"""A* point-to-point search with a Euclidean lower-bound heuristic.

The paper cites Goldberg & Harrelson's "A* search meets graph theory"
as the state of the art for single-pair queries without precomputation.
We provide it both as a fair point-to-point engine for the IER
baseline and as another point in the design space the benchmarks can
report against.

Admissibility: for networks whose edge weights are at least the
Euclidean length of the edge (every generator in this package
guarantees that; see :meth:`SpatialNetwork.min_euclidean_ratio`),
straight-line distance never overestimates network distance, so A*
returns exact shortest paths.
"""

from __future__ import annotations

import heapq
import math

from repro.network.dijkstra import DijkstraStats
from repro.network.errors import PathNotFound
from repro.network.graph import SpatialNetwork


def astar_path(
    network: SpatialNetwork,
    source: int,
    target: int,
    heuristic_scale: float = 1.0,
) -> tuple[list[int], float, DijkstraStats]:
    """Exact shortest path via A* with the Euclidean heuristic.

    Parameters
    ----------
    heuristic_scale:
        Multiplier applied to the Euclidean heuristic.  Must not exceed
        the network's minimum weight/Euclidean ratio or the result may
        be inexact; 1.0 is always safe for generator-produced networks.

    Returns ``(path, distance, stats)``; ``stats.settled`` counts the
    vertices A* expanded, directly comparable to the Dijkstra numbers
    in the motivation experiment.
    """
    network.check_vertex(source)
    network.check_vertex(target)
    if heuristic_scale < 0:
        raise ValueError("heuristic_scale must be non-negative")

    xs, ys = network.xs, network.ys
    tx, ty = float(xs[target]), float(ys[target])

    def h(u: int) -> float:
        return heuristic_scale * math.hypot(float(xs[u]) - tx, float(ys[u]) - ty)

    n = network.num_vertices
    dist = [math.inf] * n
    pred = [-1] * n
    done = [False] * n
    stats = DijkstraStats()

    dist[source] = 0.0
    heap: list[tuple[float, int]] = [(h(source), source)]
    stats.pushes += 1

    while heap:
        _, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        stats.settled += 1
        if u == target:
            path = [target]
            while path[-1] != source:
                path.append(pred[path[-1]])
            path.reverse()
            return path, dist[target], stats
        du = dist[u]
        for v, w in network.neighbors(u):
            stats.relaxed += 1
            nd = du + w
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = u
                heapq.heappush(heap, (nd + h(v), v))
                stats.pushes += 1

    raise PathNotFound(source, target)
