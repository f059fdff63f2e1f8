"""Query-to-object distance machinery built on SILC refinement.

What the kNN priority queues hold for an object has ``oid``, scalar
``lo``/``hi`` bounds, ``refine()`` and ``refine_fully()``: the one
anchor pair's :class:`~repro.silc.refinement.RefinableDistance` itself,
or an :class:`ObjectDistanceState`, the minimum over several (edge
positions, extents, a same-edge segment).  :class:`QueryHandle` bundles
the per-query state (anchors, bounds) the best-first engine needs.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Sequence

from repro.objects.index import ObjectIndex
from repro.objects.model import NetworkPosition, VertexPosition, position_point
from repro.query.location import same_edge_direct, source_anchors
from repro.quadtree.pmr import PMRNode
from repro.silc.index import SILCIndex
from repro.silc.intervals import MAX_REL_GAP, DistanceInterval, checked_bounds, invalid_bounds
from repro.silc.intervals import REL_PAD
from repro.silc.refinement import RefinableDistance, RefinementCounter


class ObjectDistanceState:
    """Refinable network distance from a query location to one object
    that can be reached more than one way.

    The true distance is the minimum over the anchor-pair components
    (each a :class:`RefinableDistance`) and the optional direct
    same-edge segment.  ``lo``/``hi`` bound that minimum as plain
    floats -- the search loop reads them directly; :attr:`interval`
    wraps them for reporting.  :meth:`refine` advances the component
    currently defining the lower bound, so the bounds tighten as fast
    as one refinement per call can manage.
    """

    __slots__ = ("oid", "components", "direct", "lo", "hi")

    def __init__(
        self,
        oid: int,
        components: list[RefinableDistance],
        direct: float | None = None,
    ) -> None:
        if not components and direct is None:
            raise ValueError("an object distance needs at least one alternative")
        self.oid = oid
        self.components = components
        self.direct = math.inf if direct is None else direct
        lo = hi = self.direct
        for comp in components:
            if comp.lo < lo:
                lo = comp.lo
            if comp.hi < hi:
                hi = comp.hi
        self.lo, self.hi = checked_bounds(lo, hi)

    @property
    def interval(self) -> DistanceInterval:
        return DistanceInterval(self.lo, self.hi)

    def refine(self) -> bool:
        """One refinement step on the component defining the lower bound.

        Returns False when the bounds can no longer improve (the
        minimum is resolved).
        """
        old_hi = self.hi
        best: RefinableDistance | None = None
        best_lo = math.inf
        for comp in self.components:
            if comp.via != comp.target and comp.lo <= old_hi and comp.lo < best_lo:
                best = comp
                best_lo = comp.lo
        if best is None:
            # Every alternative cheaper than the current upper bound is
            # exact: the minimum is decided.
            self.hi = self.lo
            return False
        best.refine()
        # __init__'s min-fold again: this is the search loop's hot
        # path, and a shared helper would cost a frame per step.
        lo = hi = self.direct
        for comp in self.components:
            if comp.lo < lo:
                lo = comp.lo
            if comp.hi < hi:
                hi = comp.hi
        if not (0.0 <= lo <= hi):
            raise invalid_bounds(lo, hi)
        if lo != hi:
            if self.lo > lo:
                lo = self.lo
            if old_hi < hi:
                hi = old_hi
            if lo > hi:
                if lo - hi > MAX_REL_GAP * lo:
                    raise invalid_bounds(lo, hi)
                lo = hi = (lo + hi) / 2.0
        self.lo = lo
        self.hi = hi
        return True

    def refine_fully(self) -> float:
        """Stepwise: abandoning an alternative needs its interval."""
        while self.lo != self.hi:
            if not self.refine():
                break
        return self.lo


#: What the priority queues hold for an object.
DistanceState = RefinableDistance | ObjectDistanceState


class QueryHandle:
    """Everything the best-first engine needs about one query location."""

    def __init__(
        self,
        index: SILCIndex,
        object_index: ObjectIndex,
        position: NetworkPosition,
        counter: RefinementCounter | None = None,
    ) -> None:
        self.index = index
        self.object_index = object_index
        self.position = position
        self.counter = counter if counter is not None else RefinementCounter()
        network = index.network
        self.network = network
        # Global lower-bound slope for the Euclidean fallback bound:
        # any network path is at least this multiple of straight-line
        # distance (see SpatialNetwork.min_euclidean_ratio).
        self._euclid_slope = network.min_euclidean_ratio()
        #: The query's one anchor ``(vertex, 0.0)`` when it is a vertex,
        #: else None.  From a vertex the only same-edge segment is the
        #: 0.0 to an object on that vertex, which the anchor pair gives
        #: exactly, so a one-anchor object is one ``RefinableDistance``.
        self.vertex_anchor: tuple[int, float] | None = None
        if isinstance(position, VertexPosition):
            # source_anchors and position_point for a vertex, inline:
            # the query point is the vertex's own coordinates.
            vertex = position.vertex
            xf = index._xf
            if not 0 <= vertex < len(xf):
                network.check_vertex(vertex)  # raises, naming the vertex
            self.vertex_anchor = (vertex, 0.0)
            self.anchors = [self.vertex_anchor]
            self.px, self.py = xf[vertex], index._yf[vertex]
        else:
            self.anchors = source_anchors(network, position)
            point = position_point(network, position)
            self.px, self.py = point.x, point.y
        self._anchor_rows: list[tuple] | None = None

    # ------------------------------------------------------------------
    # Distances
    # ------------------------------------------------------------------
    def object_state(self, oid: int) -> DistanceState:
        """The refinable distance from the query to object ``oid`` of
        this handle's object index.

        Both ends' vertex ids were checked where they entered -- the
        query's when it was resolved and reduced to anchors, the
        object's when the object index was built.  The object itself is
        read only for a same-edge segment, which a vertex query has not.
        ``best_first_knn`` builds the one-anchor case of a vertex query
        itself, with these arguments.
        """
        index = self.index
        counter = self.counter
        anchors = self.anchors
        targets = self.object_index.target_anchors[oid]
        direct = None if self.vertex_anchor is not None else same_edge_direct(
            self.network, self.position, self.object_index.objects[oid].position
        )
        if direct is None and len(targets) == 1 and len(anchors) == 1:
            (sv, s_off), (tv, t_off) = anchors[0], targets[0]
            return RefinableDistance(index, sv, tv, counter, s_off + t_off, oid)
        components = []
        for sv, s_off in anchors:
            for tv, t_off in targets:
                components.append(
                    RefinableDistance(index, sv, tv, counter, s_off + t_off)
                )
        return ObjectDistanceState(oid, components, direct)

    # ------------------------------------------------------------------
    # Block bounds
    # ------------------------------------------------------------------
    def block_bound(self, node: PMRNode) -> float:
        """Sound lower bound on the distance to any object under ``node``."""
        return self.block_bounds((node,))[0]

    def block_bounds(self, nodes: Sequence[PMRNode]) -> list[float]:
        """:meth:`block_bound` of each node, in one frame: the search
        bounds the root, then every live child of a node it expands.

        Vertex objects get the tight lambda bound through the SILC
        quadtrees; subtrees containing edge objects fall back to the
        global-slope Euclidean bound, and pure-vertex subtrees use the
        better of the two.  Per node and anchor,
        :meth:`SILCIndex.block_lower_bound` inline -- row run, pages
        (in node order, then anchor order), the minimum over the run's
        bound column or, when one table block contains the node, that
        block's ``lam_min`` times the anchor's MINDIST to the node.
        MINDIST is ``Rect.min_distance_to_point_xy`` on the node
        rectangles ``ObjectIndex`` keeps, read as four floats, its two
        ``max(lo - p, 0.0, p - hi)`` written as comparisons: the same
        value (the zero's sign aside, which ``hypot`` ignores) without a
        call.
        """
        index = self.index
        rows = self._anchor_rows
        if rows is None:
            # One bound column per anchor, shared by every node bounded.
            xf, yf, offsets = index._xf, index._yf, index._offsets
            rows = self._anchor_rows = []
            for av, a_off in self.anchors:
                rows.append((
                    av, a_off, index.bound_column(av), offsets[av], offsets[av + 1],
                    xf[av], yf[av],
                ))
        codes, levels, _, lam_min, _ = index._columns
        node_info = self.object_index.node_info
        px, py, slope = self.px, self.py, self._euclid_slope
        storage = index.storage
        inf = math.inf
        bounds = []
        for node in nodes:
            code = node.code
            level = node.level
            rect, has_edge_objects = node_info[code, level]
            xmin, ymin, xmax, ymax = rect.xmin, rect.ymin, rect.xmax, rect.ymax
            euclid = slope * math.hypot(
                xmin - px if px < xmin else px - xmax if px > xmax else 0.0,
                ymin - py if py < ymin else py - ymax if py > ymax else 0.0,
            )
            end = code + (1 << 2 * level)
            lam = inf
            for av, a_off, column, a, b, ax, ay in rows:
                start = bisect_right(codes, code, a, b) - 1
                if start < a or codes[start] + (1 << 2 * levels[start]) <= code:
                    start += 1
                stop = bisect_left(codes, end, a, b)
                if start >= stop:
                    continue  # no network vertex of the node in this table
                if storage is not None:
                    layout = storage.layout
                    base, per_page = layout.page_offsets[av], layout.records_per_page
                    for page in range((start - a) // per_page, (stop - 1 - a) // per_page + 1):
                        storage.access(base + page)
                if codes[start] >= code and codes[stop - 1] + (1 << 2 * levels[stop - 1]) <= end:
                    best = min(column[start - a : stop - a])
                else:  # one table block contains the node
                    best = lam_min[start] * math.hypot(
                        xmin - ax if ax < xmin else ax - xmax if ax > xmax else 0.0,
                        ymin - ay if ay < ymin else ay - ymax if ay > ymax else 0.0,
                    )
                best = a_off + best * (1.0 - REL_PAD)
                if best < lam:
                    lam = best
            if has_edge_objects:
                bounds.append(min(lam, euclid))
            elif lam == inf:
                # No network vertex in the block: with only vertex
                # objects allowed here, the subtree must be empty of
                # objects too.
                bounds.append(inf)
            else:
                bounds.append(max(lam, euclid))
        return bounds
