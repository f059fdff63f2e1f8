"""One instrumented pure-Python search: Dijkstra and A*.

The paper's motivation is that Dijkstra "visits too many vertices"
(3191 of 4233 in its example); reproducing that takes a search that
*counts what it touches*: settled vertices, relaxed edges and heap
pushes.  :func:`expand` is that search.  It runs under
:func:`shortest_path` (Dijkstra, or A* with the Euclidean heuristic,
Goldberg & Harrelson's single-pair state of the art) and under IER's
per-candidate refinement, ``dijkstra_anchored_distance``.

Three shortest-path loops stay separate, each for its own reason:

* INE's (:mod:`repro.query.ine`) is the served path; a generator
  resume per settled vertex would add a frame to each vertex it settles.
* The labelling build's (:mod:`repro.oracle.labelling`) prunes at each
  settled vertex: a different algorithm, tuned as its own build loop.
* SciPy's ``csgraph.dijkstra`` does the bulk work in C: the SILC build,
  its updates and the reference matrices.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable, Iterable, Iterator, MutableSequence
from dataclasses import dataclass

from repro.network.errors import PathNotFound
from repro.network.graph import SpatialNetwork


@dataclass
class DijkstraStats:
    """Work counters for one search: ``settled`` is the paper's
    "visited vertices"; ``pushes`` includes the stale entries lazy
    deletion leaves behind."""

    settled: int = 0
    relaxed: int = 0
    pushes: int = 0


class Ball(dict):
    """Ball-sized search state: a vertex never reached reads ``inf``."""

    def __missing__(self, v: int) -> float:
        return math.inf


def expand(
    network: SpatialNetwork,
    seeds: Iterable[tuple[int, float]],
    dist: MutableSequence[float] | Ball,
    pred: MutableSequence[int] | dict[int, int],
    stats: DijkstraStats,
    h: Callable[[int], float] | None = None,
) -> Iterator[tuple[int, float]]:
    """Yield ``(vertex, distance)`` as each vertex settles, nearest
    first from ``seeds``: ``(vertex, initial distance)`` pairs, such as
    the anchors of a query partway along an edge.

    A vertex's out-edges are relaxed only when the next vertex is asked
    for, so a caller that stops at its target relaxes nothing past it.
    The caller sizes the state: ``dist`` reads ``inf`` for a vertex not
    reached -- ``[inf] * n`` for a whole-network run, a :class:`Ball`
    for one whose state grows with the ball -- and ``pred`` takes each
    reached vertex's predecessor.  With a heuristic ``h`` the heap is
    ordered by ``dist[v] + h(v)``: A*.
    """
    heap: list[tuple[float, int]] = []
    heappop, heappush = heapq.heappop, heapq.heappush
    for v, d in seeds:
        network.check_vertex(v)
        if d < 0:
            raise ValueError("seed distances must be non-negative")
        if d < dist[v]:
            dist[v] = d
            heappush(heap, (d if h is None else d + h(v), v))
            stats.pushes += 1
    out_edges = network.out_edges
    done: set[int] = set()
    while heap:
        u = heappop(heap)[1]
        if u in done:
            continue
        done.add(u)
        stats.settled += 1
        du = dist[u]
        yield u, du
        nbrs = out_edges[u]
        before = len(heap)
        for v, w in nbrs:
            nd = du + w
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = u
                heappush(heap, (nd if h is None else nd + h(v), v))
        stats.relaxed += len(nbrs)
        stats.pushes += len(heap) - before


def shortest_path(
    network: SpatialNetwork,
    source: int,
    target: int,
    heuristic_scale: float = 0.0,
) -> tuple[list[int], float, DijkstraStats]:
    """``(path, distance, stats)`` by Dijkstra, or by A* when
    ``heuristic_scale`` times the Euclidean distance to ``target`` is
    positive.  A* is exact while the scale is at most
    :meth:`SpatialNetwork.min_euclidean_ratio` (1.0 is always safe for
    generated networks).  Both stop when the target settles, so their
    ``stats`` compare; an unreachable target raises :class:`PathNotFound`.
    """
    network.check_vertex(source)
    network.check_vertex(target)
    if heuristic_scale < 0:
        raise ValueError("heuristic_scale must be non-negative")
    h = None
    if heuristic_scale > 0:
        xs, ys = network.xs, network.ys
        tx, ty = float(xs[target]), float(ys[target])

        def h(u: int) -> float:
            return heuristic_scale * math.hypot(float(xs[u]) - tx, float(ys[u]) - ty)

    n = network.num_vertices
    pred = [-1] * n
    stats = DijkstraStats()
    for u, d in expand(network, [(source, 0.0)], [math.inf] * n, pred, stats, h):
        if u == target:
            path = [target]
            while path[-1] != source:
                path.append(pred[path[-1]])
            path.reverse()
            return path, d, stats
    raise PathNotFound(source, target)
