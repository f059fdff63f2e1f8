"""Further query operators on the SILC primitives.

The paper positions SILC as "a general framework for query processing
in spatial networks -- not restricted to nearest neighbor queries"
(p.40) and lists new query types as future work (p.42).  Every operator
here runs on the served kernel's one best-first loop,
:func:`repro.query.bestfirst.cursor`:

* :func:`browse` -- **incremental distance browsing**, the title
  operation: the ``inn`` search with no k;
* :func:`range_query` -- all objects within network distance ``r``;
* :func:`approximate_knn` -- epsilon-relaxed kNN ("approximate query
  processing on spatial networks", p.42);
* :func:`aggregate_nn` -- aggregate nearest neighbors over several
  query locations (best meeting point by sum or max of distances);
* :func:`distance_join` -- the k closest pairs between two object
  sets (the incremental distance join the paper cites from Hjaltason
  & Samet 1998).
"""

from __future__ import annotations

import heapq
import itertools
import math
from bisect import insort
from collections.abc import Iterator, Sequence

from repro.objects.index import ObjectIndex
from repro.objects.model import VertexPosition
from repro.query.bestfirst import cursor
from repro.query.distances import DistanceState, QueryHandle
from repro.query.location import resolve_location
from repro.query.results import KNNResult, Neighbor, exact_result
from repro.query.stats import QueryStats, counted_clock
from repro.silc.index import SILCIndex
from repro.silc.refinement import RefinementCounter


def _handle(index: SILCIndex, object_index: ObjectIndex, query, counter=None) -> QueryHandle:
    return QueryHandle(index, object_index, resolve_location(index.network, query), counter)


def _result(
    states: list[DistanceState], stats: QueryStats, t_start: float, ordered: bool = True
) -> KNNResult:
    stats.elapsed = counted_clock() - t_start
    return KNNResult(
        neighbors=[Neighbor.from_state(s) for s in states], stats=stats, ordered=ordered
    )


def browse(index: SILCIndex, object_index: ObjectIndex, query) -> Iterator[Neighbor]:
    """Yield objects in increasing network distance, incrementally.

    The "distance browsing" operation of the paper's title: the served
    ``inn`` search with no k.  Consumers pull as many neighbors as they
    need; refinement work is spent only to certify each emission (no k
    must be chosen in advance).  Emitted ``Neighbor.interval`` values
    are certified not to overlap any later emission's lower bound.
    """
    states = cursor(_handle(index, object_index, query), QueryStats(), {})
    return map(Neighbor.from_state, states)


def range_query(
    index: SILCIndex, object_index: ObjectIndex, query, radius: float
) -> KNNResult:
    """All objects within network distance ``radius`` of the query.

    Decides membership by bounds, not order: the browse confirms a
    popped object whose upper bound is within the radius at once, steps
    one whose interval straddles it until it falls on one side, and
    ends once the queue head's lower bound passes the radius -- nothing
    is refined only to be ordered.  Results come in the order they were
    popped, which is increasing lower bound, not distance: two hits'
    intervals may overlap, so the result is ``ordered=False``.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    t_start = counted_clock()
    stats = QueryStats()
    hits = list(cursor(_handle(index, object_index, query), stats, {}, radius=radius))
    return _result(hits, stats, t_start, ordered=False)


def approximate_knn(
    index: SILCIndex,
    object_index: ObjectIndex,
    query,
    k: int,
    epsilon: float,
) -> KNNResult:
    """kNN with a ``(1 + epsilon)`` approximation guarantee.

    An object is reported once its distance upper bound is within
    ``(1 + epsilon)`` of the best lower bound still queued, so wide
    intervals need fewer refinements.  Guarantee: the i-th reported
    distance is at most ``(1 + epsilon)`` times the true i-th nearest
    distance.  ``epsilon = 0`` degenerates to exact kNN.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    if k < 1:
        raise ValueError("k must be at least 1")
    t_start = counted_clock()
    stats = QueryStats()
    handle = _handle(index, object_index, query)
    confirmed = list(cursor(handle, stats, {}, k, slack=1.0 + epsilon))
    return _result(confirmed, stats, t_start)


def aggregate_nn(
    index: SILCIndex,
    object_index: ObjectIndex,
    queries: Sequence,
    k: int,
    agg: str = "sum",
) -> KNNResult:
    """The k best objects by aggregate distance from several locations.

    ``agg='sum'`` finds minimum-total-travel meeting points (optimal
    for a group that all travel); ``agg='max'`` minimizes the worst
    member's travel.  Exact: results carry exact aggregate distances.

    A threshold merge (Fagin's TA) of one browse per location, pulled
    in turn: an object a browse emits is walked to its exact aggregate
    unless its bounds already put it past the k-th best.  The upper
    bound a browse last emitted is, by Theorem 1, a floor on every
    object it has not emitted yet, so an object no browse has emitted
    aggregates to at least the aggregate of those floors; once k exact
    aggregates are within it, they are the answer.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if agg not in ("sum", "max"):
        raise ValueError(f"unknown aggregate {agg!r}")
    if not queries:
        raise ValueError("at least one query location required")
    fold = sum if agg == "sum" else max
    t_start = counted_clock()
    counter = RefinementCounter()
    handles = [_handle(index, object_index, q, counter) for q in queries]
    counts = [QueryStats() for _ in handles]
    streams = [cursor(h, c, {}) for h, c in zip(handles, counts, strict=True)]
    floors = [0.0] * len(streams)
    seen: set[int] = set()
    ranked: list[tuple[float, int]] = []  # exact aggregates, sorted
    for i in itertools.cycle(range(len(streams))):
        threshold = fold(floors)
        # At ``inf`` some browse is spent: every object has been seen.
        if threshold == math.inf or len(ranked) >= k and ranked[k - 1][0] <= threshold:
            break
        state = next(streams[i], None)
        if state is None:
            floors[i] = math.inf
            continue
        floors[i] = state.hi
        if state.oid in seen:
            continue
        seen.add(state.oid)
        # The emitted state is out of its browse's queue: walk it on.
        parts = [state if j == i else h.object_state(state.oid) for j, h in enumerate(handles)]
        # An object whose aggregate lower bound reaches the k-th best
        # cannot enter the answer: it is never walked.
        if len(ranked) < k or fold([p.lo for p in parts]) < ranked[k - 1][0]:
            insort(ranked, (fold([p.refine_fully() for p in parts]), state.oid))
    stats = QueryStats()
    for stream, count in zip(streams, counts, strict=True):
        stream.close()
        stats.add(count)
    stats.refinements = counter.count
    return exact_result(ranked[:k], stats, t_start)


def distance_join(
    index: SILCIndex,
    left_index: ObjectIndex,
    right_index: ObjectIndex,
    k: int,
) -> list[tuple[int, int, float]]:
    """The k closest (left, right) object pairs by network distance.

    An incremental distance join on interval arithmetic: every left
    object opens a browse into the right index; the browses are merged
    on their heads' lower bounds, and a head is walked to exact only
    when it reaches the top of the merge.  Returns
    ``(left_oid, right_oid, distance)`` sorted by exact distance.

    Left objects must be vertex-positioned (their vertices seed the
    per-stream SILC handles).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    seq = itertools.count()
    # (lo, tiebreak, left_oid, head state, exact?, stream)
    heap: list[tuple[float, int, int, DistanceState, bool, Iterator[DistanceState]]] = []

    def push_head(left_oid: int, stream: Iterator[DistanceState]) -> None:
        head = next(stream, None)
        if head is not None:
            heapq.heappush(heap, (head.lo, next(seq), left_oid, head, False, stream))

    for obj in left_index.objects:
        if not isinstance(obj.position, VertexPosition):
            raise ValueError("distance_join requires vertex-positioned left objects")
        handle = _handle(index, right_index, obj.position.vertex)
        push_head(obj.oid, cursor(handle, QueryStats(), {}))

    results: list[tuple[int, int, float]] = []
    while heap and len(results) < k:
        lo, _, left_oid, head, is_exact, stream = heapq.heappop(heap)
        if is_exact:
            # Exact heads pop in true distance order: emit and advance
            # the owning stream.
            results.append((left_oid, head.oid, lo))
            push_head(left_oid, stream)
        else:
            # Its browse confirmed it the closest pair left in its own
            # stream; its exact distance settles the cross-stream order.
            heapq.heappush(heap, (head.refine_fully(), next(seq), left_oid, head, True, stream))
    return results
