"""Progressive refinement of network-distance intervals.

The heart of the paper's query machinery (p.18): a distance is first
known only as ``[lambda_min * d_E, lambda_max * d_E]``; each
*refinement* advances one link along the (implicitly stored) shortest
path, replacing the estimate with ``exact prefix + interval from the
intermediate vertex``.  After at most path-length refinements the
interval collapses to the exact network distance, but queries stop as
soon as their comparison is decided.

The quality claim the paper leans on (p.30): at every stage the
estimate is "exact network distance from source to some intermediate
vertex plus a network-distance interval from there" -- strictly
tighter than oracle schemes that compose two intervals.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.silc.intervals import DistanceInterval, checked_bounds, invalid_bounds

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.silc.index import SILCIndex


class RefinementCounter:
    """Shared mutable counter so queries can report refinement work."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0


class RefinableDistance:
    """The progressively refinable distance from a source to a target.

    State is exactly what the paper stores per enqueued object (p.22):
    the intermediate vertex ``via`` reached so far and the exact
    network distance ``acc`` from the source to it.  The bounds
    ``lo``/``hi`` are plain floats that always contain the true
    distance and are monotone under :meth:`refine` -- the lower bound
    never decreases, the upper bound never increases.
    """

    __slots__ = (
        "_index",
        "source",
        "target",
        "via",
        "acc",
        "lo",
        "hi",
        "_counter",
        "_next_hop",
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
        self._counter = counter
        self._next_hop, lo, hi = index.hop_and_interval(source, target)
        self.lo, self.hi = checked_bounds(lo + offset, hi + offset)

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
        float error made them disjoint), so they are monotone even
        under floating-point jitter.
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
            self._next_hop, lo, hi = index.hop_and_interval(nxt, target)
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
                lo = hi = (lo + hi) / 2.0
        self.lo = lo
        self.hi = hi
        return True

    def refine_fully(self, max_steps: int | None = None) -> float:
        """Refine to exactness and return the network distance.

        ``max_steps`` guards against corrupted indexes; it defaults to
        the number of network vertices (no simple path is longer).
        """
        limit = max_steps if max_steps is not None else self._index.network.num_vertices
        steps = 0
        while self.refine():
            steps += 1
            if steps > limit:
                raise RuntimeError(
                    f"refinement of {self.source}->{self.target} exceeded "
                    f"{limit} steps; the index next-hop data is inconsistent"
                )
        return self.acc
