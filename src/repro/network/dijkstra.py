"""Instrumented pure-Python Dijkstra.

The paper's central motivation is that Dijkstra's algorithm "visits too
many vertices" (3191 of 4233 in their example) and therefore cannot
serve real-time queries.  To reproduce that argument we need a Dijkstra
that *counts what it touches*: settled vertices, relaxed edges and
priority-queue traffic.

Three entry points:

* :func:`shortest_path_tree` -- classic single-source run with optional
  early-exit target set, returning distances + predecessors + counters,
* :func:`shortest_path` -- point-to-point convenience wrapper,
* :class:`IncrementalDijkstra` -- a resumable expansion that yields
  vertices in increasing distance order, with state sized by the
  ball it has grown (IER refinement runs one per candidate).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from collections.abc import Iterable

from repro.network.errors import PathNotFound
from repro.network.graph import SpatialNetwork


@dataclass
class DijkstraStats:
    """Work counters for one Dijkstra run.

    ``settled`` is the paper's "visited vertices" number; ``relaxed``
    counts edge relaxations; ``pushes`` counts heap insertions
    (including the stale entries lazy deletion leaves behind).
    """

    settled: int = 0
    relaxed: int = 0
    pushes: int = 0


@dataclass
class ShortestPathTree:
    """Result of a single-source Dijkstra run.

    ``dist[v]`` is ``math.inf`` and ``pred[v]`` is ``-1`` for vertices
    that were not reached (either unreachable or cut off by early
    exit).
    """

    source: int
    dist: list[float]
    pred: list[int]
    stats: DijkstraStats = field(default_factory=DijkstraStats)

    def path_to(self, target: int) -> list[int]:
        """The vertex sequence from the source to ``target``.

        Raises :class:`PathNotFound` when the target was not reached.
        """
        if not math.isfinite(self.dist[target]):
            raise PathNotFound(self.source, target)
        path = [target]
        while path[-1] != self.source:
            path.append(self.pred[path[-1]])
        path.reverse()
        return path


def shortest_path_tree(
    network: SpatialNetwork,
    source: int,
    targets: Iterable[int] | None = None,
) -> ShortestPathTree:
    """Single-source shortest paths with optional early exit.

    Parameters
    ----------
    network:
        The spatial network to search.
    source:
        Start vertex.
    targets:
        If given, the search stops as soon as every target has been
        settled; distances of unsettled vertices remain ``inf``.
    """
    network.check_vertex(source)
    n = network.num_vertices
    remaining = None
    if targets is not None:
        remaining = {network.check_vertex(t) for t in targets}

    dist = [math.inf] * n
    pred = [-1] * n
    done = [False] * n
    stats = DijkstraStats()

    dist[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    stats.pushes += 1

    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        stats.settled += 1
        if remaining is not None:
            remaining.discard(u)
            if not remaining:
                break
        for v, w in network.neighbors(u):
            stats.relaxed += 1
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = u
                heapq.heappush(heap, (nd, v))
                stats.pushes += 1

    return ShortestPathTree(source=source, dist=dist, pred=pred, stats=stats)


def shortest_path(
    network: SpatialNetwork, source: int, target: int
) -> tuple[list[int], float, DijkstraStats]:
    """Point-to-point shortest path via early-exit Dijkstra.

    Returns ``(path, distance, stats)``.  Raises
    :class:`PathNotFound` when the target is unreachable.
    """
    tree = shortest_path_tree(network, source, targets=[target])
    path = tree.path_to(target)
    return path, tree.dist[target], tree.stats


class Reached:
    """A length-``n`` sequence over the vertices a search has reached:
    ``view[v]`` is ``values[v]``, and ``unreached`` for every other
    vertex, so the state behind it grows with the search, not with
    the network."""

    __slots__ = ("values", "unreached", "_n")

    def __init__(self, n: int, unreached) -> None:
        self.values: dict = {}
        self.unreached = unreached
        self._n = n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, v: int):
        if not 0 <= v < self._n:
            raise IndexError(v)
        return self.values.get(v, self.unreached)


class IncrementalDijkstra:
    """Resumable Dijkstra expansion in increasing distance order.

    Each ``settle_next()`` settles one more vertex, resuming where the
    previous call stopped, so a caller grows a ball just far enough to
    settle its targets (IER's ``dijkstra_anchored_distance`` does).
    Its state is sized by
    that ball: ``dist`` / ``pred`` read ``inf`` / ``-1`` for a vertex
    not reached, and constructing one costs O(seeds).
    """

    def __init__(
        self,
        network: SpatialNetwork,
        source: int | None = None,
        seeds: Iterable[tuple[int, float]] | None = None,
    ) -> None:
        """Start an expansion from a vertex or from weighted seeds.

        ``seeds`` generalizes the source to several start vertices with
        initial distances -- the anchor decomposition of a query
        located partway along an edge.
        """
        if (source is None) == (seeds is None):
            raise ValueError("provide exactly one of source or seeds")
        self._network = network
        self.dist = Reached(network.num_vertices, math.inf)
        self.pred = Reached(network.num_vertices, -1)
        self._done: set[int] = set()
        self._heap: list[tuple[float, int]] = []
        self.stats = DijkstraStats()
        dist = self.dist.values
        for v, d in [(source, 0.0)] if seeds is None else seeds:
            network.check_vertex(v)
            if d < 0:
                raise ValueError("seed distances must be non-negative")
            if d < dist.get(v, math.inf):
                dist[v] = d
                heapq.heappush(self._heap, (d, v))
                self.stats.pushes += 1

    def settle_next(self) -> tuple[int, float] | None:
        """Settle and return the next nearest vertex, or ``None``."""
        dist, pred, done = self.dist.values, self.pred.values, self._done
        while self._heap:
            d, u = heapq.heappop(self._heap)
            if u in done:
                continue
            done.add(u)
            self.stats.settled += 1
            for v, w in self._network.neighbors(u):
                self.stats.relaxed += 1
                nd = d + w
                if nd < dist.get(v, math.inf):
                    dist[v] = nd
                    pred[v] = u
                    heapq.heappush(self._heap, (nd, v))
                    self.stats.pushes += 1
            return (u, d)
        return None
