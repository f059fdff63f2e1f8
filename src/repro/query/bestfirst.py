"""The paper's best-first k-nearest-neighbor algorithm and variants.

One engine implements the non-incremental best-first search of p.23
and its three published variants through small policy differences:

=========  =====================================================
``knn``    the base algorithm: result queue ``L`` maintained
           continuously, the pruning distance ``Dk`` (max distance
           bound of the k-th candidate) prunes enqueues and halts
           the search.
``inn``    the incremental variant: no ``L``, no ``Dk``; neighbors
           are confirmed one at a time until k are reported.
``knn_i``  computes the one-shot estimate ``D0k`` from the first k
           objects encountered and prunes with it, avoiding the
           continuous ``L`` maintenance of ``knn``.
``knn_m``  additionally tracks KMINDIST (a sound lower bound on
           the k-th neighbor distance) and accepts any object whose
           upper bound falls below it *without further refinement*
           -- fewer refinements, unsorted output.
=========  =====================================================

Correctness invariant shared by all variants (the paper's Theorem 1):
an object popped from ``Q`` whose distance interval does not collide
with the head of ``Q`` can be reported, because interval lower bounds
are monotone under refinement, so nothing still queued can ever beat
it.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from heapq import heappop, heappush
from operator import attrgetter

from repro.errors import DeadlineExceeded
from repro.objects.index import ObjectIndex
from repro.objects.model import NetworkPosition
from repro.query.distances import DistanceState, QueryHandle
from repro.query.location import resolve_location
from repro.query.results import KNNResult, Neighbor
from repro.query.stats import QueryStats, counted_clock
from repro.silc.index import SILCIndex
from repro.silc.refinement import RefinementCounter

_NODE = 0
_OBJECT = 1

VARIANTS = ("knn", "inn", "knn_i", "knn_m")

#: Sort key of the fill and the exact pass: C, so no frame per state.
_by_lo = attrgetter("lo")


class _KMinDistTracker:
    """Sound lower bound on the k-th neighbor distance (kNN-M).

    Every object is either *seen* (its interval lower bound is in
    ``lows``) or hidden under an unexpanded block of the queue (its
    distance is at least that block's bound, hence at least
    ``min_block``).  The k-th neighbor distance therefore never falls
    below ``min(k-th smallest seen bound, smallest queued block
    bound)`` -- and any object whose *upper* bound is below that value
    is certainly one of the k nearest.
    """

    __slots__ = ("lows", "blocks", "k")

    def __init__(self, k: int) -> None:
        self.lows: list[float] = []
        self.blocks: list[float] = []
        self.k = k

    def add(self, lo: float) -> None:
        insort(self.lows, lo)

    def replace(self, old: float, new: float) -> None:
        i = bisect_left(self.lows, old)
        if i < len(self.lows) and self.lows[i] == old:
            del self.lows[i]
        insort(self.lows, new)

    def block_pushed(self, bound: float) -> None:
        insort(self.blocks, bound)

    def block_popped(self, bound: float) -> None:
        i = bisect_left(self.blocks, bound)
        if i < len(self.blocks) and self.blocks[i] == bound:
            del self.blocks[i]

    def value(self) -> float:
        min_block = self.blocks[0] if self.blocks else math.inf
        if len(self.lows) < self.k:
            return min_block
        return min(self.lows[self.k - 1], min_block)


def _deadline_exceeded(budget: float, confirmed: int, k: int) -> DeadlineExceeded:
    return DeadlineExceeded(
        f"kNN search exceeded its {budget:.4f}s budget "
        f"({confirmed} of {k} neighbors confirmed)"
    )


def best_first_knn(
    index: SILCIndex,
    object_index: ObjectIndex,
    query,
    k: int,
    variant: str = "knn",
    exact: bool = False,
    max_distance: float = math.inf,
    time_budget: float | None = None,
) -> KNNResult:
    """Find the ``k`` network-nearest objects to ``query``.

    Parameters
    ----------
    index:
        A built :class:`SILCIndex` over the network.
    object_index:
        The spatial index over the (decoupled) object set.
    query:
        A vertex id, a :class:`NetworkPosition`, or a free
        :class:`Point` (snapped to the nearest vertex).
    k:
        Number of neighbors; fewer are returned when the object set is
        smaller.
    variant:
        One of ``knn``, ``inn``, ``knn_i``, ``knn_m`` (see module
        docstring).
    exact:
        When True, fully refine the reported neighbors so that
        ``Neighbor.distance`` is the exact network distance.  The
        extra refinements are recorded separately in
        ``stats.extras['post_refinements']``.  An exact ``knn`` also
        walks a colliding object whose upper bound is within ``Dk`` to
        exact inside the search (reporting still waits for Theorem 1);
        those links count in ``stats.refinements``.
    max_distance:
        External pruning cap in network-weight units: the search may
        omit any object whose network distance strictly exceeds it, and
        stops as soon as nothing closer remains -- so a cap far below
        the local Dk makes the query cheap.  Objects at exactly
        ``max_distance`` are still reported.  The sharded partition
        router passes its current global k-th distance here, turning
        visits to far shards into near no-ops.  ``inf`` (the default)
        disables the cap.
    time_budget:
        Remaining wall-clock budget in seconds for this search.  When
        it runs out -- in the main loop, the exact-refinement pass, or
        the fallback fill -- :class:`~repro.errors.DeadlineExceeded`
        is raised so the caller never receives a late (or partially
        refined) result.  ``None`` (the default) disables the cap and
        keeps the historical behavior byte-for-byte: the deadline is
        only ever *checked*, never used to alter the search order, so
        a query that finishes within budget returns the identical
        answer it would have without one.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if k < 1:
        raise ValueError("k must be at least 1")
    # The loop breaks at ``lo >= bound``; nudging the cap one ulp up
    # keeps objects at exactly max_distance reportable.
    cap = math.nextafter(max_distance, math.inf)

    t_start = counted_clock()
    deadline = None if time_budget is None else t_start + time_budget
    if time_budget is not None and time_budget <= 0:
        raise DeadlineExceeded(
            f"kNN search started with no remaining budget "
            f"({time_budget:.4f}s)"
        )
    stats = QueryStats()
    counter = RefinementCounter()
    position: NetworkPosition = resolve_location(index.network, query)
    handle = QueryHandle(index, object_index, position, counter)
    io_before = index.storage.stats if index.storage is not None else None

    use_dk = variant == "knn"
    # An exact ``knn`` walks a colliding object already inside ``Dk`` to
    # exact in one call; every other search steps (see ARCHITECTURE.md).
    walk = use_dk and exact
    use_d0k = variant in ("knn_i", "knn_m")
    kmin_tracker = _KMinDistTracker(k) if variant == "knn_m" else None

    # The pruning distance: ``Dk`` for ``knn`` -- the k-th smallest
    # upper bound in L, re-read (and counted as an L operation) at every
    # use --, ``D0k`` once the first k objects are in for ``knn_i`` /
    # ``knn_m``, and the external cap throughout.
    bound = cap
    # The paper's ``L`` (``knn`` only): candidates ``(hi, seq, oid)`` sorted
    # by upper bound, and each object's current entry.  ``l_seq`` numbers
    # the writes, so ``l_ops`` (fig p.38's kNN-PQ) is that plus the Dk reads.
    l_entries: list[tuple[float, int, int]] = []
    l_where: dict[int, tuple[float, int, int]] = {}
    l_seq = dk_reads = 0
    first_k_his: list[float] = []
    states: dict[int, DistanceState] = {}
    confirmed: list[DistanceState] = []

    # Q holds ``(lo, seq, kind, payload)``; ``seq`` counts pushes, so it
    # breaks ties first-in-first-out and is ``queue_pushes`` at the end.
    heap: list[tuple[float, int, int, object]] = []
    seq = max_queue = collisions = 0
    root = object_index.root
    if root.children is not None or root.entries:
        lo = handle.block_bound(root)
        heap.append((lo, 1, _NODE, root))
        seq = max_queue = 1
        if kmin_tracker is not None:
            kmin_tracker.block_pushed(lo)

    # A refined object whose new lower bound is still strictly below
    # everything queued would be pushed and popped straight back (a tie
    # would not: the new sequence number is the largest).  ``held``
    # keeps it in hand for the next iteration instead, which makes every
    # per-pop check on it exactly as the round trip would.
    held: DistanceState | None = None
    while held is not None or (heap and len(confirmed) < k):
        if deadline is not None and counted_clock() > deadline:
            raise _deadline_exceeded(time_budget, len(confirmed), k)
        if held is None:
            lo, _, kind, payload = heappop(heap)
            if kind == _NODE and kmin_tracker is not None:
                kmin_tracker.block_popped(lo)
        else:
            lo, kind, payload, held = held.lo, _OBJECT, held, None
        if use_dk:
            dk_reads += 1
            bound = l_entries[k - 1][0] if len(l_entries) >= k else cap
            if cap < bound:
                bound = cap
        if lo >= bound:
            break  # nothing remaining can enter the k nearest
        if kind == _NODE:
            node = payload
            if use_dk:
                dk_reads += 1  # the expansion reads Dk too; L has not moved
            # Objects and children are tested against the bound as it
            # stood when the node was popped.
            popped_bound = bound
            if node.children is None:
                stats.leaf_expansions += 1
                # First pass: register every object of the leaf, so the
                # KMINDIST tracker sees all siblings before any accept
                # decision (accepting against a partially registered
                # leaf would overestimate the k-th neighbor bound).
                fresh: list[DistanceState] = []
                for oid, _, _ in node.entries:
                    if oid in states:
                        # Extent objects are indexed once per part;
                        # only the first encounter creates a state.
                        continue
                    state = handle.object_state(oid)
                    states[oid] = state
                    fresh.append(state)
                    if use_d0k and len(first_k_his) < k:
                        first_k_his.append(state.hi)
                        if len(first_k_his) == k:
                            stats.d0k = max(first_k_his)
                            bound = min(stats.d0k, cap)
                    if use_dk:
                        entry = l_where[oid] = (state.hi, l_seq, oid)
                        insort(l_entries, entry)
                        l_seq += 1
                    if kmin_tracker is not None:
                        kmin_tracker.add(state.lo)
                stats.objects_seen += len(fresh)
                # Second pass: accept certain members outright (kNN-M)
                # or enqueue survivors of the pruning bound.
                for state in fresh:
                    if (
                        kmin_tracker is not None
                        and len(confirmed) < k
                        and state.hi <= kmin_tracker.value()
                    ):
                        stats.kmindist_accepts += 1
                        confirmed.append(state)
                    elif state.lo < popped_bound:
                        seq += 1
                        heappush(heap, (state.lo, seq, _OBJECT, state))
            else:
                stats.nonleaf_expansions += 1
                for child in node.children:
                    if child.children is None and not child.entries:
                        continue  # an empty leaf
                    child_bound = handle.block_bound(child)
                    if child_bound < popped_bound:
                        seq += 1
                        heappush(heap, (child_bound, seq, _NODE, child))
                        if kmin_tracker is not None:
                            kmin_tracker.block_pushed(child_bound)
            if len(heap) > max_queue:
                max_queue = len(heap)
            continue

        state: DistanceState = payload
        if state.hi <= (heap[0][0] if heap else math.inf):
            # No collision: reporting is safe (Theorem 1).
            confirmed.append(state)
            continue
        collisions += 1
        if kmin_tracker is not None and state.hi <= kmin_tracker.value():
            # Certain member of the k nearest: accept unrefined.
            stats.kmindist_accepts += 1
            confirmed.append(state)
            continue
        old_lo, old_hi = state.lo, state.hi
        if walk and old_hi <= bound:
            # Inside Dk: most such objects are answers the exact pass
            # walks anyway, so walk it now, not one heap cycle per link.
            state.refine_fully()
        else:
            state.refine()
        lo = state.lo
        if use_dk and state.hi != old_hi:
            # L is keyed on ``hi``: an unmoved one leaves L and Dk as
            # they are.  Entries are unique tuples: bisect lands on the
            # stale one.
            oid = state.oid
            del l_entries[bisect_left(l_entries, l_where[oid])]
            entry = l_where[oid] = (state.hi, l_seq, oid)
            insort(l_entries, entry)
            l_seq += 1
            dk_reads += 1
            bound = l_entries[k - 1][0] if len(l_entries) >= k else cap
            if cap < bound:
                bound = cap
        if kmin_tracker is not None:
            kmin_tracker.replace(old_lo, lo)
        # ``<=``: an object that is itself the k-th entry of L and just
        # became exact has lo == Dk; dropping it confirms a farther one.
        if lo <= bound:
            seq += 1
            if heap and lo >= heap[0][0]:
                heappush(heap, (lo, seq, _OBJECT, state))
                if len(heap) > max_queue:
                    max_queue = len(heap)
            else:
                held = state
                if len(heap) >= max_queue:
                    max_queue = len(heap) + 1

    stats.refinements = counter.count
    stats.queue_pushes = seq
    stats.max_queue = max_queue
    stats.collisions = collisions
    stats.confirmations = len(confirmed)
    stats.l_ops = l_seq + dk_reads

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    result_states = confirmed[:k]
    if len(result_states) < k and len(states) >= len(result_states):
        # Boundary ties (or k > |S|): fall back to the tightest
        # remaining candidates, resolved exactly for safety.
        confirmed_oids = {s.oid for s in result_states}
        # Candidates past the external cap are omittable by contract
        # (their distance exceeds every answer the caller can use).
        remaining = [
            s
            for s in states.values()
            if s.oid not in confirmed_oids and s.lo <= max_distance
        ]
        remaining.sort(key=_by_lo)
        fill = remaining[: k - len(result_states)]
        for s in fill:
            if deadline is not None and counted_clock() > deadline:
                raise _deadline_exceeded(time_budget, len(result_states), k)
            s.refine_fully()
        fill.sort(key=_by_lo)
        result_states.extend(fill)
        stats.extras["fallback_fill"] = len(fill)

    post_refinements = 0
    if exact:
        before = counter.count
        for s in result_states:
            if deadline is not None and counted_clock() > deadline:
                raise _deadline_exceeded(time_budget, len(result_states), k)
            s.refine_fully()
        post_refinements = counter.count - before
        stats.extras["post_refinements"] = post_refinements
        stats.refinements = counter.count - post_refinements
        if variant != "knn_m":
            result_states.sort(key=_by_lo)

    neighbors = [Neighbor.from_state(s) for s in result_states]

    if neighbors:
        his = sorted(n.interval.hi for n in neighbors)
        stats.dk_final = his[min(k, len(his)) - 1]
    if kmin_tracker is not None:
        stats.kmindist_final = kmin_tracker.value()

    if io_before is not None and index.storage is not None:
        # One simulator, one query at a time: what it counted since
        # io_before is this query's I/O.
        delta = index.storage.stats.delta_since(io_before)
        stats.io_accesses = delta.accesses
        stats.io_misses = delta.misses
        stats.io_time = delta.io_time(index.storage.miss_latency)

    stats.elapsed = counted_clock() - t_start
    return KNNResult(
        neighbors=neighbors, stats=stats, ordered=(variant != "knn_m")
    )
