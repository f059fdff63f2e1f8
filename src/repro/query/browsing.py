"""Further query operators on the SILC primitives.

The paper positions SILC as "a general framework for query processing
in spatial networks -- not restricted to nearest neighbor queries"
(p.40) and lists new query types as future work (p.42).  This module
supplies the operators that follow directly from distance intervals +
progressive refinement:

* :func:`browse` -- **incremental distance browsing**, the title
  operation: a generator yielding objects one at a time in increasing
  network distance, refining only as far as each emission requires;
* :func:`range_query` -- all objects within network distance ``r``,
  refining an object only until its in/out status is decided;
* :func:`approximate_knn` -- epsilon-relaxed kNN ("approximate query
  processing on spatial networks", p.42): neighbors within a
  ``(1 + epsilon)`` factor of optimal, for fewer refinements;
* :func:`aggregate_nn` -- aggregate nearest neighbors over several
  query locations (best meeting point by sum or max of distances);
* :func:`distance_join` -- the k closest pairs between two object
  sets (the incremental distance join the paper cites from Hjaltason
  & Samet 1998), run on interval arithmetic.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Iterator, Sequence

from repro.objects.index import ObjectIndex
from repro.query.distances import DistanceState, QueryHandle
from repro.query.location import resolve_location
from repro.query.results import KNNResult, Neighbor
from repro.query.stats import QueryStats, counted_clock
from repro.silc.index import SILCIndex
from repro.silc.intervals import checked_bounds
from repro.silc.refinement import RefinementCounter

_NODE = 0
_OBJECT = 1


def _single(values: list[float]) -> float:
    return values[0]


class _Frontier:
    """A best-first frontier over the object index (shared machinery).

    Owns the per-operator state: one :class:`QueryHandle` per query
    location (sharing one refinement counter), the counted stats and
    the priority queue.
    """

    def __init__(
        self, index: SILCIndex, object_index: ObjectIndex, queries: Sequence, combine=_single
    ) -> None:
        self.stats = QueryStats()
        self.counter = RefinementCounter()
        self.handles = [
            QueryHandle(
                index, object_index, resolve_location(index.network, q), self.counter
            )
            for q in queries
        ]
        self.combine = combine
        self._seq = itertools.count()
        self.heap: list[tuple[float, int, int, object]] = []
        self.seen: set[int] = set()
        root = object_index.root
        if not (root.is_leaf and not root.entries):
            self.push(self.block_bound(root), _NODE, root)

    def block_bound(self, node) -> float:
        return self.combine([h.block_bound(node) for h in self.handles])

    def push(self, lo: float, kind: int, payload: object) -> None:
        heapq.heappush(self.heap, (lo, next(self._seq), kind, payload))
        self.stats.queue_pushes += 1
        if len(self.heap) > self.stats.max_queue:
            self.stats.max_queue = len(self.heap)

    def top_lo(self) -> float:
        return self.heap[0][0] if self.heap else math.inf

    def expand_node(self, node, bound: float) -> None:
        """Replace a popped node with its children or object states."""
        if node.is_leaf:
            self.stats.leaf_expansions += 1
            for oid, _, _ in node.entries:
                if oid in self.seen:
                    continue  # extent parts index the same object twice
                self.seen.add(oid)
                state = _MultiState(
                    oid,
                    [h.object_state(oid) for h in self.handles],
                    self.combine,
                )
                self.stats.objects_seen += 1
                if state.lo < bound:
                    self.push(state.lo, _OBJECT, state)
        else:
            self.stats.nonleaf_expansions += 1
            for child in node.children:
                if child.is_leaf and not child.entries:
                    continue
                child_bound = self.block_bound(child)
                if child_bound < bound:
                    self.push(child_bound, _NODE, child)

    def confirmed(self, slack: float = 1.0) -> Iterator[_MultiState]:
        """Object states in confirmation order, refining on collisions.

        A popped state is confirmed once its upper bound is within
        ``slack`` times the best lower bound still queued (``1.0``:
        certainly no farther than anything remaining).
        """
        while self.heap:
            _, _, kind, payload = heapq.heappop(self.heap)
            if kind == _NODE:
                self.expand_node(payload, math.inf)
            elif payload.hi <= self.top_lo() * slack:
                self.stats.confirmations += 1
                yield payload
            else:
                self.stats.collisions += 1
                payload.refine()
                self.push(payload.lo, _OBJECT, payload)

    def result(self, states: list[_MultiState], t_start: float) -> KNNResult:
        neighbors = [Neighbor.from_state(s) for s in states]
        self.stats.elapsed = counted_clock() - t_start
        return KNNResult(neighbors=neighbors, stats=self.stats, ordered=True)


class _MultiState:
    """Aggregate distance state over one object and several handles.

    For a single handle this is a thin wrapper; for aggregate queries
    ``combine`` folds the per-source bounds (sum or max) and
    :meth:`refine` advances the loosest component.  Same scalar
    ``lo``/``hi`` representation as the per-handle states.
    """

    __slots__ = ("oid", "parts", "combine", "lo", "hi")

    def __init__(self, oid: int, parts: list[DistanceState], combine) -> None:
        self.oid = oid
        self.parts = parts
        self.combine = combine
        self.lo, self.hi = self._fold()

    def _fold(self, prev_lo=0.0, prev_hi=math.inf) -> tuple[float, float]:
        lo = self.combine([p.lo for p in self.parts])
        hi = self.combine([p.hi for p in self.parts])
        return checked_bounds(lo, hi, prev_lo, prev_hi)

    def refine(self) -> bool:
        widest = None
        width = 0.0
        for p in self.parts:
            w = p.hi - p.lo
            if w > width:
                width = w
                widest = p
        if widest is None:
            return False
        # Refold even when the widest alternative only resolved
        # internally (refine() returned False).
        progressed = widest.refine()
        self.lo, self.hi = self._fold(self.lo, self.hi)
        return progressed

    def refine_fully(self) -> float:
        for p in self.parts:
            p.refine_fully()
        self.lo, self.hi = self._fold()
        return self.lo


def browse(
    index: SILCIndex, object_index: ObjectIndex, query
) -> Iterator[Neighbor]:
    """Yield objects in increasing network distance, incrementally.

    The "distance browsing" operation of the paper's title: consumers
    pull as many neighbors as they need; refinement work is spent only
    to certify each emission (no k must be chosen in advance).
    Emitted ``Neighbor.interval`` values are certified not to overlap
    any later emission's lower bound.
    """
    for state in _Frontier(index, object_index, [query]).confirmed():
        yield Neighbor.from_state(state)


def range_query(
    index: SILCIndex, object_index: ObjectIndex, query, radius: float
) -> KNNResult:
    """All objects within network distance ``radius`` of the query.

    Refinement stops per object as soon as its interval falls entirely
    inside or outside the radius; results are sorted by lower bound.
    Boundary objects (interval straddling after full refinement) are
    included when their exact distance is <= radius.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    t_start = counted_clock()
    frontier = _Frontier(index, object_index, [query])
    stats = frontier.stats

    hits: list[_MultiState] = []
    while frontier.heap:
        lo, _, kind, payload = heapq.heappop(frontier.heap)
        if lo > radius:
            break  # everything remaining is certainly outside
        if kind == _NODE:
            # Children beyond the radius are pruned at push time.
            frontier.expand_node(payload, radius + _radius_pad(radius))
            continue
        state: _MultiState = payload
        if state.hi <= radius:
            stats.confirmations += 1
            hits.append(state)
        elif state.lo <= radius:
            stats.collisions += 1
            state.refine()
            frontier.push(state.lo, _OBJECT, state)
        # else: certainly outside; drop.

    stats.refinements = frontier.counter.count
    hits.sort(key=lambda s: s.lo)
    return frontier.result(hits, t_start)


def _radius_pad(radius: float) -> float:
    """Tolerance so boundary objects are examined rather than dropped."""
    return max(1e-9, radius * 1e-12)


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
    frontier = _Frontier(index, object_index, [query])
    confirmed = list(itertools.islice(frontier.confirmed(1.0 + epsilon), k))
    frontier.stats.refinements = frontier.counter.count
    return frontier.result(confirmed, t_start)


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
    member's travel.  Exact: results are fully refined.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if agg not in ("sum", "max"):
        raise ValueError(f"unknown aggregate {agg!r}")
    if not queries:
        raise ValueError("at least one query location required")
    t_start = counted_clock()
    frontier = _Frontier(
        index, object_index, queries, sum if agg == "sum" else max
    )
    confirmed = list(itertools.islice(frontier.confirmed(), k))
    frontier.stats.refinements = frontier.counter.count
    for s in confirmed:
        s.refine_fully()
    return frontier.result(confirmed, t_start)


def distance_join(
    index: SILCIndex,
    left_index: ObjectIndex,
    right_index: ObjectIndex,
    k: int,
) -> list[tuple[int, int, float]]:
    """The k closest (left, right) object pairs by network distance.

    An incremental distance join on interval arithmetic: every left
    object opens a best-first stream into the right index; streams are
    merged on their next-candidate lower bounds, so only pairs that
    can still enter the top k are ever refined.  Returns
    ``(left_oid, right_oid, distance)`` sorted by exact distance.

    Left objects must be vertex-positioned (their vertices seed the
    per-stream SILC handles).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    from repro.objects.model import VertexPosition

    counter = RefinementCounter()
    seq = itertools.count()
    # Heap entries: (lo, tiebreak, left_oid, right_oid, exact?, stream)
    heap: list[tuple[float, int, int, int, bool, Iterator[Neighbor]]] = []

    def exact_distance(left_oid: int, right_oid: int) -> float:
        handle = QueryHandle(
            index,
            right_index,
            resolve_location(index.network, left_index.get(left_oid).position),
            counter,
        )
        return handle.object_state(right_oid).refine_fully()

    def push_head(left_oid: int, stream: Iterator[Neighbor]) -> None:
        head = next(stream, None)
        if head is not None:
            heapq.heappush(
                heap,
                (head.interval.lo, next(seq), left_oid, head.oid, False, stream),
            )

    for obj in left_index.objects:
        if not isinstance(obj.position, VertexPosition):
            raise ValueError("distance_join requires vertex-positioned left objects")
        push_head(obj.oid, browse(index, right_index, obj.position.vertex))

    results: list[tuple[int, int, float]] = []
    while heap and len(results) < k:
        lo, _, left_oid, right_oid, is_exact, stream = heapq.heappop(heap)
        if is_exact:
            # Exact heads pop in true distance order: emit and advance
            # the owning stream.
            results.append((left_oid, right_oid, lo))
            push_head(left_oid, stream)
            continue
        # Interval head: resolve it exactly and requeue.  Its browse
        # stream certified it as the closest remaining pair of its own
        # stream; exactness settles the cross-stream order.
        d = exact_distance(left_oid, right_oid)
        heapq.heappush(heap, (d, next(seq), left_oid, right_oid, True, stream))

    return results
