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

The search loop is one generator, :func:`cursor`, yielding each state
as it is confirmed.  :func:`best_first_knn` drains it to k; with no k it
is ``inn`` run open-ended, the distance browsing of the paper's title,
and every operator of :mod:`repro.query.browsing` runs on it.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections.abc import Collection, Generator
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
from repro.silc.intervals import DistanceInterval
from repro.silc.refinement import RefinableDistance, RefinementCounter

_NODE = 0
_OBJECT = 1

VARIANTS = ("knn", "inn", "knn_i", "knn_m")

#: The fewest neighbours a query must ask for before its walks to exact
#: go home (``RefinableDistance.walk_home``) and an exact search walks
#: every colliding vertex object at once.  A walk home probes the
#: object's own table, which a forward walk never reads, and saves the
#: links its path shares with earlier walks -- few when few answers are
#: walked: on the 1 000-vertex benchmark network, over all four
#: variants, an exact k = 5 search walked 16 % fewer links home with
#: 55 % more simulated page misses and no faster, and k = 10 walked
#: 33 % fewer and ran even to 6 % faster.
HOME_MIN_K = 10

#: Sort keys of the fill, the exact pass and ``dk_final``: C, so no
#: frame per state.
_by_lo = attrgetter("lo")
_by_hi = attrgetter("hi")


def _tie_fits(
    lo: float, bound: float, lows: list[float], confirmed: list[DistanceState], k: int
) -> bool:
    """Whether an object whose upper bound *equals* the KMINDIST
    ``bound`` (its lower bound ``lo``) is certainly one of the k nearest
    (kNN-M).

    It may tie the k-th neighbor, so it counts only while there is a
    slot for it beside every object that may still be closer (a lower
    bound in ``lows`` below the bound) and every one accepted at or
    past it: two objects tied at the k-th distance must not crowd out a
    closer one.
    """
    closer = bisect_left(lows, bound) - (lo < bound)
    return closer + sum(map(bound.__le__, map(_by_lo, confirmed))) < k


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
        ``stats.extras['post_refinements']``.  An exact search also
        walks some colliding objects to exact inside the search, in one
        call, instead of stepping them (reporting still waits for
        Theorem 1): on a ``network.symmetric`` network a vertex query
        for ``HOME_MIN_K`` or more neighbours walks every colliding
        vertex object home, in every variant; elsewhere an exact
        ``knn`` walks one whose upper bound is within ``Dk`` forward.
        Those links count in ``stats.refinements``.
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

    # On a network whose every edge has a reverse of the same weight, a
    # vertex query for HOME_MIN_K or more neighbours walks an object on a
    # vertex home: from the object toward the query, stopping at the
    # first vertex of ``known`` (the query, and every vertex an earlier
    # walk passed), so its walks cost the union of their paths
    # (``RefinableDistance.walk_home``).
    if handle.vertex_anchor is not None and index.network.symmetric and k >= HOME_MIN_K:
        home = object_index.vertex_anchored
        known = {handle.vertex_anchor[0]: 0.0}
    else:
        home, known = frozenset(), {}
    states: dict[int, DistanceState] = {}
    confirmed = list(cursor(
        handle, stats, states, k, variant, exact, home, known, deadline, time_budget
    ))

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    result_states = confirmed[:k]
    if len(result_states) < k and len(states) >= len(result_states):
        # Boundary ties (or k > |S|): fall back to the tightest
        # remaining candidates, resolved exactly for safety.
        confirmed_oids = {s.oid for s in result_states}
        remaining = [s for s in states.values() if s.oid not in confirmed_oids]
        remaining.sort(key=_by_lo)
        fill = remaining[: k - len(result_states)]
        for s in fill:
            if deadline is not None and counted_clock() > deadline:
                raise _deadline_exceeded(time_budget, len(result_states), k)
            # A ``RefinableDistance`` at its target is exact (every
            # method that reaches it sets ``lo == hi == acc``) and costs
            # no call; for an ``ObjectDistanceState`` ``lo == hi`` is no
            # proof, so it always gets one.
            if type(s) is not RefinableDistance:
                s.refine_fully()
            elif s.via != s.target:
                if s.oid in home:
                    s.walk_home(known)
                else:
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
            if type(s) is not RefinableDistance:
                s.refine_fully()
            elif s.via != s.target:
                if s.oid in home:
                    s.walk_home(known)
                else:
                    s.refine_fully()
        post_refinements = counter.count - before
        stats.extras["post_refinements"] = post_refinements
        stats.refinements = counter.count - post_refinements
        if variant != "knn_m":
            result_states.sort(key=_by_lo)

    # Neighbor.from_state, inline: one frame less per neighbour.
    neighbors = [
        Neighbor(s.oid, DistanceInterval(s.lo, s.hi), s.lo if s.lo == s.hi else None)
        for s in result_states
    ]

    if neighbors:
        his = sorted(map(_by_hi, result_states))
        stats.dk_final = his[min(k, len(his)) - 1]
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


def cursor(
    handle: QueryHandle, stats: QueryStats, states: dict[int, DistanceState],
    k: int | None = None, variant: str = "inn", exact: bool = False,
    home: Collection[int] = frozenset(), known: dict[int, float] | None = None,
    deadline: float | None = None, time_budget: float | None = None, slack: float = 1.0,
    radius: float | None = None,
) -> Generator[DistanceState, None, None]:
    """The best-first loop of p.23 as a resumable cursor: yield each
    object state the moment Theorem 1 (or, for ``knn_m``, KMINDIST)
    confirms it, refining only as far as the next confirmation needs.

    ``k=None`` (``inn`` only) sets no limit: distance browsing.  With a
    k it stops after k confirmations, or when the pruning bound ends the
    search.  ``slack`` confirms a state whose upper bound is within that
    factor of the queue head (``approximate_knn``'s ``1 + epsilon``); at
    ``1.0`` it is Theorem 1's test.  ``radius`` (``inn`` only) decides
    membership instead of order: a popped state whose upper bound is
    within it is confirmed at once, one that straddles it is refined,
    and the search ends when the queue head's lower bound passes it
    (``range_query``).  ``states`` collects every state built, by object
    id; ``exact``, ``home``, ``known`` and the deadline are
    ``best_first_knn``'s.  The loop's counts go into ``stats`` when the
    cursor ends: drained, closed, or collected unfinished.
    """
    index = handle.index
    object_index = handle.object_index
    counter = handle.counter
    inf = math.inf
    limit = inf if k is None else k
    # A vertex query builds a one-anchor object's state here, as
    # ``handle.object_state`` would: one frame per object.
    vertex_anchor = handle.vertex_anchor
    target_anchors = object_index.target_anchors
    live_children = object_index.live_children
    use_dk = variant == "knn"
    use_d0k = variant in ("knn_i", "knn_m")
    # An exact search walks every colliding object of ``home`` to exact
    # at once, whatever the variant: the walk costs only the links no
    # earlier walk passed.  Elsewhere an exact ``knn`` walks a colliding
    # object already inside ``Dk`` forward, and every other search
    # steps (see ARCHITECTURE.md, "Walk once sure").
    walks_home = home if exact else frozenset()
    walk = use_dk and exact

    # KMINDIST (``knn_m`` only), a sound lower bound on the k-th
    # neighbor distance: every object is either *seen* (its current
    # lower bound is in the sorted ``kmin_lows``) or hidden under a
    # queued block (at least that block's bound, and ``kmin_blocks``
    # holds the queued blocks' bounds, sorted).  The k-th neighbor
    # distance never falls below ``min(k-th seen bound, smallest block
    # bound)``, and an object whose *upper* bound is below that is
    # certainly one of the k nearest.
    kmin_lows: list[float] | None = [] if variant == "knn_m" else None
    kmin_blocks: list[float] = []

    # The pruning distance: ``Dk`` for ``knn`` -- the k-th smallest
    # upper bound in L, re-read (and counted as an L operation) at every
    # use --, and ``D0k`` once the first k objects are in for ``knn_i`` /
    # ``knn_m``.
    bound = inf
    # The paper's ``L`` (``knn`` only): candidates ``(hi, seq, oid)`` sorted
    # by upper bound, and each object's current entry.  ``l_seq`` numbers
    # the writes, so ``l_ops`` (fig p.38's kNN-PQ) is that plus the Dk reads.
    l_entries: list[tuple[float, int, int]] = []
    l_where: dict[int, tuple[float, int, int]] = {}
    l_seq = dk_reads = 0
    first_k_his: list[float] = []
    confirmed: list[DistanceState] = []
    if radius is not None:
        # Nothing whose lower bound passes the radius is queued or kept.
        bound = math.nextafter(radius, inf)

    # Q holds ``(lo, seq, kind, payload)``; ``seq`` counts pushes, so it
    # breaks ties first-in-first-out and is ``queue_pushes`` at the end.
    heap: list[tuple[float, int, int, object]] = []
    seq = max_queue = collisions = 0
    root = object_index.root
    if root.children is not None or root.entries:
        lo = handle.block_bounds((root,))[0]
        heap.append((lo, 1, _NODE, root))
        seq = max_queue = 1
        if kmin_lows is not None:
            kmin_blocks.append(lo)

    # A refined object whose new lower bound is still strictly below
    # everything queued would be pushed and popped straight back (a tie
    # would not: the new sequence number is the largest).  ``held``
    # keeps it in hand for the next iteration instead, which makes every
    # per-pop check on it exactly as the round trip would.
    held: DistanceState | None = None
    try:
        while held is not None or (heap and len(confirmed) < limit):
            if deadline is not None and counted_clock() > deadline:
                raise _deadline_exceeded(time_budget, len(confirmed), k)
            if held is None:
                lo, _, kind, payload = heappop(heap)
                if kind == _NODE and kmin_lows is not None:
                    # A popped node holds the smallest bound queued: the
                    # first of the sorted block bounds.
                    del kmin_blocks[0]
            else:
                lo, kind, payload, held = held.lo, _OBJECT, held, None
            if use_dk:
                dk_reads += 1
                bound = l_entries[k - 1][0] if len(l_entries) >= k else inf
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
                        targets = target_anchors[oid]
                        if vertex_anchor is not None and len(targets) == 1:
                            (sv, s_off), (tv, t_off) = vertex_anchor, targets[0]
                            state = RefinableDistance(index, sv, tv, counter, s_off + t_off, oid)
                        else:
                            state = handle.object_state(oid)
                        states[oid] = state
                        fresh.append(state)
                        if use_d0k and len(first_k_his) < k:
                            first_k_his.append(state.hi)
                            if len(first_k_his) == k:
                                stats.d0k = max(first_k_his)
                                bound = stats.d0k
                        if use_dk:
                            entry = l_where[oid] = (state.hi, l_seq, oid)
                            insort(l_entries, entry)
                            l_seq += 1
                        if kmin_lows is not None:
                            insort(kmin_lows, state.lo)
                    stats.objects_seen += len(fresh)
                    if kmin_lows is not None:
                        # KMINDIST: nothing moves it in the second pass.
                        kmin = kmin_blocks[0] if kmin_blocks else inf
                        if len(kmin_lows) >= k and kmin_lows[k - 1] < kmin:
                            kmin = kmin_lows[k - 1]
                    # Second pass: accept certain members outright (kNN-M)
                    # or enqueue survivors of the pruning bound.
                    for state in fresh:
                        if (
                            kmin_lows is not None
                            and len(confirmed) < k
                            and (
                                state.hi < kmin
                                or state.hi == kmin
                                and _tie_fits(state.lo, kmin, kmin_lows, confirmed, k)
                            )
                        ):
                            stats.kmindist_accepts += 1
                            confirmed.append(state)
                            yield state
                        elif state.lo < popped_bound:
                            seq += 1
                            heappush(heap, (state.lo, seq, _OBJECT, state))
                else:
                    stats.nonleaf_expansions += 1
                    children = live_children[node.code, node.level]
                    for child, child_bound in zip(children, handle.block_bounds(children)):
                        if child_bound < popped_bound:
                            seq += 1
                            heappush(heap, (child_bound, seq, _NODE, child))
                            if kmin_lows is not None:
                                insort(kmin_blocks, child_bound)
                if len(heap) > max_queue:
                    max_queue = len(heap)
                continue

            state: DistanceState = payload
            if state.hi <= (
                radius if radius is not None else heap[0][0] * slack if heap else inf
            ):
                # No collision: reporting is safe (Theorem 1), or the
                # state is inside the radius.
                confirmed.append(state)
                yield state
                continue
            collisions += 1
            old_lo, old_hi = state.lo, state.hi
            if kmin_lows is not None:
                kmin = kmin_blocks[0] if kmin_blocks else inf
                if len(kmin_lows) >= k and kmin_lows[k - 1] < kmin:
                    kmin = kmin_lows[k - 1]
                if old_hi < kmin or old_hi == kmin and _tie_fits(
                    old_lo, kmin, kmin_lows, confirmed, k
                ):
                    # Certain member of the k nearest: accept unrefined.
                    stats.kmindist_accepts += 1
                    confirmed.append(state)
                    yield state
                    continue
            if state.oid in walks_home:
                state.walk_home(known)
            elif walk and old_hi <= bound:
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
                bound = l_entries[k - 1][0] if len(l_entries) >= k else inf
            if kmin_lows is not None and lo != old_lo:
                # Every seen object's current lower bound is in the list.
                del kmin_lows[bisect_left(kmin_lows, old_lo)]
                insort(kmin_lows, lo)
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
    finally:
        stats.refinements = counter.count
        stats.queue_pushes = seq
        stats.max_queue = max_queue
        stats.collisions = collisions
        stats.confirmations = len(confirmed)
        stats.l_ops = l_seq + dk_reads
        if kmin_lows is not None:
            kmin = kmin_blocks[0] if kmin_blocks else inf
            if len(kmin_lows) >= k:
                kmin = min(kmin_lows[k - 1], kmin)
            stats.kmindist_final = kmin
