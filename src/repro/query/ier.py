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

Each candidate is refined by :func:`dijkstra_anchored_distance`, one
multi-seed Dijkstra (the paper's choice).  Given a loaded
:class:`~repro.oracle.PrunedLabellingOracle` as ``oracle``, its
``anchored_distance`` refines instead: every candidate's exact distance
costs a label merge in place of a Dijkstra ball.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from functools import partial
from typing import TYPE_CHECKING

from repro.geometry.point import Point
from repro.network.dijkstra import IncrementalDijkstra
from repro.network.graph import SpatialNetwork
from repro.objects.index import ObjectIndex
from repro.objects.model import NetworkPosition, position_point, target_anchors
from repro.query.location import resolve_location, same_edge_direct, source_anchors
from repro.query.results import KNNResult, exact_result
from repro.query.stats import QueryStats, counted_clock

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.oracle.labelling import PrunedLabellingOracle
    from repro.storage.network_pages import NetworkStorageModel

Anchors = Sequence[tuple[int, float]]


def dijkstra_anchored_distance(
    network: SpatialNetwork,
    src_anchors: Anchors,
    t_anchors: Anchors,
    best: float = math.inf,
    stats: QueryStats | None = None,
    storage: NetworkStorageModel | None = None,
) -> float:
    """Exact location-to-location distance by one multi-seed Dijkstra.

    ``src_anchors``/``t_anchors`` are ``(vertex, offset)`` pairs (see
    :mod:`repro.query.location`); ``best`` seeds the minimum with an
    already-known bound (the same-edge direct segment).  ONE expansion
    from every source anchor runs until it has settled every target
    anchor -- cheaper than an expansion per anchor pair.  ``storage``
    charges each settled vertex a page access; ``stats`` receives the
    expansion's ``settled``/``relaxed`` counts.  Unreachable: ``best``.
    """
    expansion = IncrementalDijkstra(network, seeds=src_anchors)
    remaining = {tv for tv, _ in t_anchors}
    while remaining:
        settled = expansion.settle_next()
        if settled is None:
            break
        if storage is not None:
            storage.touch_vertex(settled[0])
        remaining.discard(settled[0])
    if stats is not None:
        stats.settled += expansion.stats.settled
        stats.relaxed += expansion.stats.relaxed
    for tv, t_off in t_anchors:
        if math.isfinite(expansion.dist[tv]):
            best = min(best, expansion.dist[tv] + t_off)
    return best


def _network_distance(
    network: SpatialNetwork,
    src_anchors: Anchors,
    position: NetworkPosition,
    obj_position: NetworkPosition,
    stats: QueryStats,
    storage: NetworkStorageModel | None,
    refine: Callable[..., float],
) -> float:
    """Exact network distance from the query to one object, through
    ``refine`` (an ``anchored_distance``)."""
    best = math.inf
    direct = same_edge_direct(network, position, obj_position)
    if direct is not None:
        best = direct
    t_anchors = target_anchors(network, obj_position)
    stats.nd_computations += 1
    return refine(src_anchors, t_anchors, best=best, stats=stats, storage=storage)


def ier_knn(
    object_index: ObjectIndex,
    query: int | NetworkPosition | Point,
    k: int,
    storage: NetworkStorageModel | None = None,
    oracle: PrunedLabellingOracle | None = None,
) -> KNNResult:
    """The k nearest objects by incremental Euclidean restriction.

    Each candidate's exact distance comes from
    :func:`dijkstra_anchored_distance` (the paper's choice).  The
    ``storage`` page model, when given, charges each settled vertex a
    page access.  ``oracle``, a loaded
    :class:`~repro.oracle.PrunedLabellingOracle`, refines through its
    ``anchored_distance`` instead: a label merge per candidate, not a
    Dijkstra ball.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    t_start = counted_clock()
    stats = QueryStats()
    network = object_index.network
    refine: Callable[..., float] = (
        partial(dijkstra_anchored_distance, network)
        if oracle is None
        else oracle.anchored_distance
    )
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
            network, src_anchors, position, obj.position, stats, storage, refine
        )
        results.append((dist, oid))
        results.sort()
        del results[k:]

    return exact_result(results, stats, t_start, storage, io_before)
