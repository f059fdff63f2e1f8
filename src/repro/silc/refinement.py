"""Progressive refinement of network-distance intervals.

The heart of the paper's query machinery (p.18): a distance is first
known only as ``[lambda_min * d_E, lambda_max * d_E]``; each
*refinement* advances one link along the (implicitly stored) shortest
path, replacing the estimate with ``exact prefix + interval from the
intermediate vertex``.  After at most path-length refinements the
interval collapses to the exact network distance; queries stop as soon
as their comparison is decided, and what they report exactly is then a
plain walk of the rest of the path (``refine_fully``), no intervals.

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


class RefinableDistance:
    """The progressively refinable distance from a source to a target.

    State is exactly what the paper stores per enqueued object (p.22):
    the intermediate vertex ``via`` reached so far and the exact
    network distance ``acc`` from the source to it.  The bounds
    ``lo``/``hi`` are plain floats that always contain the true
    distance and are monotone under :meth:`refine` -- the lower bound
    never decreases, the upper bound never increases.

    A query with this one way to an object queues the instance itself,
    and ``oid`` then names the object.

    ``__init__`` and :meth:`refine` each carry the lines of
    :meth:`SILCIndex.hop_and_interval` (same arithmetic, same order:
    bit-identical bounds), so a state built or refined is one frame; a
    negative colour goes to ``index.hop_and_interval`` for its meaning.
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
        "_cell",
    )

    def __init__(
        self,
        index: SILCIndex,
        source: int,
        target: int,
        counter: RefinementCounter | None = None,
        offset: float = 0.0,
    ) -> None:
        if offset < 0:
            raise ValueError("offset must be non-negative")
        self._index = index
        self.source = source
        self.target = target
        self.via = source
        self.acc = offset
        self.oid: int | None = None
        self._counter = counter
        cell = self._cell = index._vcodes[target]
        if source == target:
            hop, lo, hi = source, 0.0, 0.0
        else:
            codes, levels, colors, lam_min, lam_max = index.tables[source].columns
            row = bisect_right(codes, cell) - 1
            if row < 0 or cell >= codes[row] + (1 << 2 * levels[row]):
                raise PathNotFound(source, target)
            hop = colors[row]
            if hop < 0:
                hop, lo, hi = index.hop_and_interval(source, target)
            else:
                storage = index.storage
                if storage is not None:
                    layout = storage.layout
                    storage.access(layout.page_offsets[source] + row // layout.records_per_page)
                xf, yf = index._xf, index._yf
                d_e = math.hypot(xf[source] - xf[target], yf[source] - yf[target])
                lo = lam_min[row] * d_e * (1.0 - REL_PAD)
                hi = lam_max[row] * d_e * (1.0 + REL_PAD)
        self._next_hop = hop
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

    @property
    def is_exact(self) -> bool:
        return self.via == self.target

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
        floating-point jitter.
        """
        via = self.via
        target = self.target
        if via == target:
            return False
        index = self._index
        nxt = self._next_hop
        network = index.network
        weight = network.out_weights[via].get(nxt)
        if weight is None:  # corrupt next hop: edge_weight names the failure
            weight = network.edge_weight(via, nxt)
        acc = self.acc + weight
        self.acc = acc
        self.via = nxt
        if self._counter is not None:
            self._counter.count += 1
        if nxt == target:
            lo = hi = acc
        else:
            codes, levels, colors, lam_min, lam_max = index.tables[nxt].columns
            cell = self._cell
            row = bisect_right(codes, cell) - 1
            if row < 0 or cell >= codes[row] + (1 << 2 * levels[row]):
                raise PathNotFound(nxt, target)
            hop = colors[row]
            if hop < 0:
                hop, lo, hi = index.hop_and_interval(nxt, target)
            else:
                storage = index.storage
                if storage is not None:
                    layout = storage.layout
                    storage.access(layout.page_offsets[nxt] + row // layout.records_per_page)
                xf, yf = index._xf, index._yf
                d_e = math.hypot(xf[nxt] - xf[target], yf[nxt] - yf[target])
                lo = lam_min[row] * d_e * (1.0 - REL_PAD)
                hi = lam_max[row] * d_e * (1.0 + REL_PAD)
            self._next_hop = hop
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
        self.lo = lo
        self.hi = hi
        return True

    def refine_fully(
        self, max_steps: int | None = None, trail: list[int] | None = None
    ) -> float:
        """Walk the rest of the path and return the exact distance.

        The paper's path retrieval "in size-of-path steps" (p.17), in
        this one frame: per link one edge weight and, short of the
        target, one probe that keeps :meth:`refine`'s checks (block
        containment, a valid lambda row, the page access) and computes
        no interval.  ``trail`` collects the vertices reached.

        ``max_steps`` guards against corrupted indexes; it defaults to
        the number of network vertices (no simple path is longer).
        """
        index = self._index
        network = index.network
        out_weights = network.out_weights  # one dict per vertex
        limit = max_steps if max_steps is not None else len(out_weights)
        target, via, acc, nxt = self.target, self.via, self.acc, self._next_hop
        tables = index.tables
        cell = self._cell
        storage = index.storage
        if storage is not None:
            access = storage.access
            page_offsets = storage.layout.page_offsets
            per_page = storage.layout.records_per_page
        steps = 0
        while via != target:
            weight = out_weights[via].get(nxt)
            if weight is None:  # corrupt next hop: edge_weight names the failure
                weight = network.edge_weight(via, nxt)
            acc += weight
            via = nxt
            steps += 1
            if steps > limit:
                raise next_hop_cycle(self.source, target, limit)
            if trail is not None:
                trail.append(via)
            if via == target:
                break
            codes, levels, colors, lam_min, lam_max = tables[via].columns
            row = bisect_right(codes, cell) - 1
            if row < 0 or cell >= codes[row] + (1 << 2 * levels[row]):
                raise PathNotFound(via, target)
            if not (0.0 <= lam_min[row] <= lam_max[row]):
                raise invalid_bounds(lam_min[row], lam_max[row])
            nxt = colors[row]
            if nxt < 0:  # no vertex: the index's own probe says what it means
                nxt = index.hop_and_interval(via, target)[0]
            elif storage is not None:
                access(page_offsets[via] + row // per_page)
        if self._counter is not None:
            self._counter.count += steps
        self.via = via
        self.acc = self.lo = self.hi = acc
        return acc
