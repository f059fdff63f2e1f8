"""Progressive refinement of network-distance intervals.

The heart of the paper's query machinery (p.18): a distance is first
known only as ``[lambda_min * d_E, lambda_max * d_E]``; each
*refinement* advances one link along the (implicitly stored) shortest
path, replacing the estimate with ``exact prefix + interval from the
intermediate vertex``.  After at most path-length refinements the
interval collapses to the exact network distance; queries stop as soon
as their comparison is decided, and what they report exactly is then a
plain walk of the rest of the path (``refine_fully``), no intervals --
or, where every edge has a reverse of the same weight, a walk from the
target back toward the source that stops where an earlier walk of the
same query passed (``walk_home``).

The quality claim the paper leans on (p.30): at every stage the
estimate is "exact network distance from source to some intermediate
vertex plus a network-distance interval from there" -- strictly
tighter than oracle schemes that compose two intervals.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import TYPE_CHECKING

from repro.network.errors import PathNotFound
from repro.quadtree.blocks import LAMBDA_LADDER
from repro.silc.intervals import MAX_REL_GAP, REL_PAD, DistanceInterval, invalid_bounds

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.silc.index import SILCIndex


class RefinementCounter:
    """Shared mutable counter so queries can report refinement work."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0


def next_hop_cycle(source: int, target: int, limit: int) -> RuntimeError:
    """The error for a walk that did not reach ``target`` in ``limit`` links."""
    return RuntimeError(
        f"refinement of {source}->{target} exceeded {limit} steps; "
        "the index next-hop data is inconsistent"
    )


#: Where a walk may land around the bounds it started from: both hold
#: the true distance, so they miss each other only by round-off.
_BELOW, _ABOVE = 1.0 - MAX_REL_GAP, 1.0 + MAX_REL_GAP


def landed_outside(distance: float, lo: float, hi: float) -> ValueError:
    """The error for a walk whose distance misses the bounds it started
    from by more than :data:`MAX_REL_GAP`: some next hop led off the
    shortest path."""
    return ValueError(
        f"walked distance {distance} lies outside its bounds [{lo}, {hi}]; "
        "the index next-hop data is inconsistent"
    )


class RefinableDistance:
    """The progressively refinable distance from a source to a target.

    State is exactly what the paper stores per enqueued object (p.22):
    the intermediate vertex ``via`` reached so far and the exact
    network distance ``acc`` from the source to it.  The bounds
    ``lo``/``hi`` are plain floats that always contain the true
    distance and are monotone under :meth:`refine` -- the lower bound
    never decreases, the upper bound never increases.

    A query with this one way to an object queues the instance itself,
    and ``oid`` then names the object (``None`` otherwise).

    ``__init__`` and :meth:`refine` each carry the lines of
    :meth:`SILCIndex.hop_and_interval` (same arithmetic, same order:
    bit-identical bounds), so a state built or refined is one frame.  A
    probe reads the next hop and the weight of the link to it with one
    index, ``network.out_edges[u][colour]``, and the state keeps both; a
    colour that names no out-edge raises ``index.missing_hop``'s error.
    """

    __slots__ = (
        "_index",
        "source",
        "target",
        "via",
        "acc",
        "lo",
        "hi",
        "oid",
        "_counter",
        "_next_hop",
        "_weight",
        "_cell",
    )

    def __init__(
        self,
        index: SILCIndex,
        source: int,
        target: int,
        counter: RefinementCounter | None = None,
        offset: float = 0.0,
        oid: int | None = None,
    ) -> None:
        if offset < 0:
            raise ValueError("offset must be non-negative")
        self._index = index
        self.source = source
        self.target = target
        self.via = source
        self.acc = offset
        self.oid = oid
        self._counter = counter
        cell = self._cell = index._vcodes[target]
        if source == target:
            hop, weight, lo, hi = source, 0.0, 0.0, 0.0
        else:
            codes, levels, colors, lam_min, lam_max = index._columns
            start = index._offsets[source]
            row = bisect_right(codes, cell, start, index._offsets[source + 1]) - 1
            if row < start or cell >= codes[row] + (1 << 2 * levels[row]):
                raise PathNotFound(source, target)
            rank = colors[row]
            if rank < 0:
                raise index.missing_hop(source, target, rank)
            try:
                hop, weight = index.network.out_edges[source][rank]
            except IndexError:
                raise index.missing_hop(source, target, rank) from None
            storage = index.storage
            if storage is not None:
                layout = storage.layout
                storage.access(
                    layout.page_offsets[source] + (row - start) // layout.records_per_page
                )
            xf, yf = index._xf, index._yf
            d_e = math.hypot(xf[source] - xf[target], yf[source] - yf[target])
            lo = LAMBDA_LADDER[lam_min[row]] * d_e * (1.0 - REL_PAD)
            hi = LAMBDA_LADDER[lam_max[row]] * d_e * (1.0 + REL_PAD)
        self._next_hop = hop
        self._weight = weight
        lo += offset
        hi += offset
        if not (0.0 <= lo <= hi):
            raise invalid_bounds(lo, hi)
        self.lo = lo
        self.hi = hi

    # ------------------------------------------------------------------
    # Interval access
    # ------------------------------------------------------------------
    @property
    def interval(self) -> DistanceInterval:
        return DistanceInterval(self.lo, self.hi)

    # ------------------------------------------------------------------
    # Refinement
    # ------------------------------------------------------------------
    def refine(self) -> bool:
        """Advance one link along the shortest path.

        Returns False (and does nothing) when the distance is already
        exact.  Costs exactly one quadtree probe: the next hop was
        cached by the previous probe.  The resulting bounds are
        clamped to the previous ones (collapsing to the midpoint if
        float error made them disjoint; disjoint by more than that is
        a ``ValueError``), so they are monotone even under
        floating-point jitter.  A probe that raises leaves the state
        and the counter as they were.
        """
        target = self.target
        if self.via == target:
            return False
        nxt = self._next_hop
        acc = self.acc + self._weight
        if nxt == target:
            hop, weight = nxt, 0.0
            lo = hi = acc
        else:
            index = self._index
            codes, levels, colors, lam_min, lam_max = index._columns
            start = index._offsets[nxt]
            cell = self._cell
            row = bisect_right(codes, cell, start, index._offsets[nxt + 1]) - 1
            if row < start or cell >= codes[row] + (1 << 2 * levels[row]):
                raise PathNotFound(nxt, target)
            rank = colors[row]
            if rank < 0:
                raise index.missing_hop(nxt, target, rank)
            try:
                hop, weight = index.network.out_edges[nxt][rank]
            except IndexError:
                raise index.missing_hop(nxt, target, rank) from None
            storage = index.storage
            if storage is not None:
                layout = storage.layout
                storage.access(
                    layout.page_offsets[nxt] + (row - start) // layout.records_per_page
                )
            xf, yf = index._xf, index._yf
            d_e = math.hypot(xf[nxt] - xf[target], yf[nxt] - yf[target])
            lo = LAMBDA_LADDER[lam_min[row]] * d_e * (1.0 - REL_PAD)
            hi = LAMBDA_LADDER[lam_max[row]] * d_e * (1.0 + REL_PAD)
            lo += acc
            hi += acc
        if not (0.0 <= lo <= hi):
            raise invalid_bounds(lo, hi)
        if lo != hi:
            if self.lo > lo:
                lo = self.lo
            if self.hi < hi:
                hi = self.hi
            if lo > hi:
                if lo - hi > MAX_REL_GAP * lo:
                    raise invalid_bounds(lo, hi)
                lo = hi = (lo + hi) / 2.0
        self.via = nxt
        self.acc = acc
        self._next_hop = hop
        self._weight = weight
        self.lo = lo
        self.hi = hi
        if self._counter is not None:
            self._counter.count += 1
        return True

    def refine_fully(
        self, max_steps: int | None = None, trail: list[int] | None = None
    ) -> float:
        """Walk the rest of the path and return the exact distance.

        The paper's path retrieval "in size-of-path steps" (p.17), in
        this one frame: per link, short of the target, one probe that
        keeps :meth:`refine`'s checks on the row it reads (block
        containment, a colour naming an out-edge, the page access),
        reads the next hop and the link's weight, and reads no λ: the
        distance is the sum of the weights.  ``trail`` collects the
        vertices reached.  The distance it lands on must lie inside the
        bounds it started from (within :data:`MAX_REL_GAP`), else
        ``ValueError``.

        ``max_steps`` guards against corrupted indexes; it defaults to
        the number of network vertices (no simple path is longer).
        """
        index = self._index
        out_edges = index.network.out_edges
        limit = max_steps if max_steps is not None else len(out_edges)
        target, via, acc = self.target, self.via, self.acc
        nxt, weight = self._next_hop, self._weight
        codes, levels, colors, _, _ = index._columns
        offsets = index._offsets
        cell = self._cell
        storage = index.storage
        if storage is not None:
            access = storage.access
            page_offsets = storage.layout.page_offsets
            per_page = storage.layout.records_per_page
        steps = 0
        while via != target:
            acc += weight
            via = nxt
            steps += 1
            if steps > limit:
                raise next_hop_cycle(self.source, target, limit)
            if trail is not None:
                trail.append(via)
            if via == target:
                break
            start = offsets[via]
            row = bisect_right(codes, cell, start, offsets[via + 1]) - 1
            if row < start or cell >= codes[row] + (1 << 2 * levels[row]):
                raise PathNotFound(via, target)
            rank = colors[row]
            if rank < 0:
                raise index.missing_hop(via, target, rank)
            try:
                nxt, weight = out_edges[via][rank]
            except IndexError:
                raise index.missing_hop(via, target, rank) from None
            if storage is not None:
                access(page_offsets[via] + (row - start) // per_page)
        if not (self.lo * _BELOW <= acc <= self.hi * _ABOVE):
            raise landed_outside(acc, self.lo, self.hi)
        if self._counter is not None:
            self._counter.count += steps
        self.via = via
        self.acc = self.lo = self.hi = acc
        return acc

    def walk_home(self, known: dict[int, float]) -> float:
        """:meth:`refine_fully`'s distance, walked from the target back
        toward the source.

        Only for a zero-offset distance over a network whose every edge
        has a reverse of the same weight (``network.symmetric``): there
        the path the tables give from the target toward the source,
        read backwards, is a shortest path from the source.  ``known``
        maps vertices to their exact distance from the source, the
        source itself at 0.0; this state's ``via`` and the next hop its
        last probe cached go in first.  Per link one probe of the
        vertex's table with the *source's* cell, keeping
        :meth:`refine_fully`'s checks (block containment, a colour
        naming an out-edge, the page access, the cycle guard); the walk
        stops at the first vertex in ``known`` and adds
        the weights it collected forward from there -- the float fold a
        forward walk makes along that path -- entering every vertex it
        passed into ``known``.  The walks of one query then cost the
        union of their paths, not the sum: a link counts when its far
        end enters ``known``.
        """
        index = self._index
        out_edges = index.network.out_edges
        source, target, via, acc = self.source, self.target, self.via, self.acc
        if via == target:
            return acc
        # The forward walk's first link is free of a probe: it is cached.
        hop = self._next_hop
        known.setdefault(via, acc)
        steps = 0
        if hop not in known:
            known[hop] = acc + self._weight
            steps = 1
        codes, levels, colors, _, _ = index._columns
        offsets = index._offsets
        cell = index._vcodes[source]
        storage = index.storage
        if storage is not None:
            access = storage.access
            page_offsets = storage.layout.page_offsets
            per_page = storage.layout.records_per_page
        limit = len(out_edges)  # no simple path is longer
        passed: list[int] = []
        weights: list[float] = []
        u = target
        while u not in known:
            if len(passed) >= limit:
                raise next_hop_cycle(target, source, limit)
            start = offsets[u]
            row = bisect_right(codes, cell, start, offsets[u + 1]) - 1
            if row < start or cell >= codes[row] + (1 << 2 * levels[row]):
                raise PathNotFound(u, source)
            rank = colors[row]
            if rank < 0:
                raise index.missing_hop(u, source, rank)
            try:
                nxt, weight = out_edges[u][rank]
            except IndexError:
                raise index.missing_hop(u, source, rank) from None
            if storage is not None:
                access(page_offsets[u] + (row - start) // per_page)
            passed.append(u)
            weights.append(weight)
            u = nxt
        acc = known[u]
        i = len(passed)
        steps += i
        while i:
            i -= 1
            acc += weights[i]
            known[passed[i]] = acc
        if not (self.lo * _BELOW <= acc <= self.hi * _ABOVE):
            raise landed_outside(acc, self.lo, self.hi)
        if self._counter is not None:
            self._counter.count += steps
        self.via = target
        self.acc = self.lo = self.hi = acc
        return acc
