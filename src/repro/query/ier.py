"""IER: Incremental Euclidean Restriction (Papadias et al., VLDB 2003).

The second baseline (p.25): scan objects in increasing *Euclidean*
distance, compute each one's exact network distance with a separate
shortest-path search, and stop once the next Euclidean distance
exceeds the current k-th network distance.  Correct because network
distance never undercuts Euclidean distance on metric road networks
(the generators guarantee edge weight >= edge length; validated here).

The paper finds IER consistently slowest: every candidate pays a full
point-to-point search, and Euclidean order is a poor proxy for network
order (the whole motivation of the paper).

The refinement stage now runs through the shared
:class:`~repro.oracle.DistanceOracle` interface: by default a
:class:`~repro.oracle.DijkstraOracle` (the historical multi-seed
Dijkstra, unchanged), but any loaded oracle -- in particular a
:class:`~repro.oracle.PrunedLabellingOracle` -- transparently
accelerates every candidate's exact distance from a Dijkstra ball to
a label merge.
"""

from __future__ import annotations

import math

from repro.network.astar import astar_path
from repro.objects.index import ObjectIndex
from repro.objects.model import position_point, target_anchors
from repro.query.location import resolve_location, same_edge_direct, source_anchors
from repro.query.results import KNNResult, exact_result
from repro.query.stats import QueryStats, counted_clock


def _network_distance(
    network,
    src_anchors,
    position,
    obj_position,
    stats: QueryStats,
    engine: str,
    storage=None,
    oracle=None,
) -> float:
    """Exact network distance from the query to one object.

    Routed through ``oracle.anchored_distance`` -- the shared
    :class:`~repro.oracle.DistanceOracle` surface -- except for the
    A* engine, whose goal-directed point-to-point search has no
    anchored batch form.
    """
    best = math.inf
    direct = same_edge_direct(network, position, obj_position)
    if direct is not None:
        best = direct
    t_anchors = target_anchors(network, obj_position)
    stats.nd_computations += 1
    if engine == "astar" and len(src_anchors) == 1 and src_anchors[0][1] == 0.0:
        source = src_anchors[0][0]
        for tv, t_off in t_anchors:
            if source == tv:
                best = min(best, t_off)
                continue
            _, dist, search_stats = astar_path(network, source, tv)
            stats.settled += search_stats.settled
            stats.relaxed += search_stats.relaxed
            best = min(best, dist + t_off)
        return best
    return oracle.anchored_distance(
        src_anchors, t_anchors, best=best, stats=stats, storage=storage
    )


def ier_knn(
    object_index: ObjectIndex,
    query,
    k: int,
    engine: str = "dijkstra",
    storage=None,
    oracle=None,
) -> KNNResult:
    """The k nearest objects by incremental Euclidean restriction.

    ``engine`` selects the point-to-point solver for the refinement
    stage: ``"dijkstra"`` (the paper's choice) or ``"astar"``.  The
    ``storage`` page model, when given, charges each settled vertex a
    page access (dijkstra engine only).  ``oracle`` overrides the
    refinement backend with any :class:`~repro.oracle.DistanceOracle`
    -- pass a loaded :class:`~repro.oracle.PrunedLabellingOracle` and
    every candidate's exact distance costs a label merge instead of a
    Dijkstra ball.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if engine not in ("dijkstra", "astar"):
        raise ValueError(f"unknown engine {engine!r}")
    if oracle is None:
        from repro.oracle.base import DijkstraOracle

        oracle = DijkstraOracle(object_index.network)
    else:
        engine = "oracle"
    t_start = counted_clock()
    stats = QueryStats()
    network = object_index.network
    io_before = storage.stats if storage is not None else None
    if network.min_euclidean_ratio() < 1.0 - 1e-12:
        raise ValueError(
            "IER requires edge weights >= Euclidean edge lengths; this "
            "network violates the lower-bounding property"
        )
    position = resolve_location(network, query)
    src_anchors = source_anchors(network, position)
    origin = position_point(network, position)

    results: list[tuple[float, int]] = []

    def kth() -> float:
        return results[k - 1][0] if len(results) >= k else math.inf

    seen: set[int] = set()
    for oid, euclid in object_index.iter_euclidean(origin):
        if euclid > kth():
            break
        if oid in seen:
            continue  # extent objects are indexed once per part
        seen.add(oid)
        obj = object_index.get(oid)
        dist = _network_distance(
            network, src_anchors, position, obj.position, stats, engine,
            storage, oracle,
        )
        results.append((dist, oid))
        results.sort()
        del results[k:]

    return exact_result(results, stats, t_start, storage, io_before)
