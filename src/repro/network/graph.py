"""The spatial network: a weighted directed graph embedded in the plane.

This is the substrate every part of the paper runs on.  Each vertex
carries a planar position (a road intersection); each directed edge a
positive travel cost (road-segment length or time).  The class is a
frozen, validated container optimized for the two access patterns the
reproduction needs:

* fast neighbor scans in pure-Python Dijkstra/A* (adjacency lists of
  ``(target, weight)`` tuples), and
* bulk linear algebra in the SILC precompute (scipy CSR matrix and
  numpy coordinate arrays).
"""

from __future__ import annotations

import zlib
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from repro.geometry.point import Point
from repro.network.errors import (
    DisconnectedNetwork,
    EdgeNotFound,
    GraphConstructionError,
    VertexNotFound,
)

if TYPE_CHECKING:  # loaded by the first to_csr(); serving never pays
    from scipy import sparse


class SpatialNetwork:
    """A directed, positively weighted graph with planar vertex positions.

    Parameters
    ----------
    xs, ys:
        Vertex coordinates; vertex ids are the array indices
        ``0 .. n-1``.
    edges:
        Iterable of ``(source, target, weight)`` triples.  Weights must
        be strictly positive; parallel edges collapse to the minimum
        weight (the cheaper road wins, as in any route planner).

    Notes
    -----
    Instances are immutable after construction.  Use
    :meth:`with_edges` / :meth:`without_edges` to derive modified
    networks (e.g. for the road-closure example).
    """

    __slots__ = (
        "xs", "ys", "out_edges", "in_edges", "out_weights", "symmetric", "_edge_count",
        "_csr_cache", "_ratio_cache", "_digest_cache",
    )

    def __init__(
        self,
        xs: Sequence[float] | np.ndarray,
        ys: Sequence[float] | np.ndarray,
        edges: Iterable[tuple[int, int, float]],
    ) -> None:
        self.xs = np.asarray(xs, dtype=np.float64)
        self.ys = np.asarray(ys, dtype=np.float64)
        if self.xs.ndim != 1 or self.ys.ndim != 1:
            raise GraphConstructionError("coordinate arrays must be 1-D")
        if self.xs.shape != self.ys.shape:
            raise GraphConstructionError(
                f"coordinate arrays disagree: {self.xs.shape} vs {self.ys.shape}"
            )
        if self.xs.size == 0:
            raise GraphConstructionError("a spatial network needs at least one vertex")
        if not (np.isfinite(self.xs).all() and np.isfinite(self.ys).all()):
            raise GraphConstructionError("vertex coordinates must be finite")

        n = self.xs.size
        best: list[dict[int, float]] = [dict() for _ in range(n)]
        for u, v, w in edges:
            if not (0 <= u < n):
                raise VertexNotFound(u, n)
            if not (0 <= v < n):
                raise VertexNotFound(v, n)
            if u == v:
                raise GraphConstructionError(f"self-loop at vertex {u}")
            wf = float(w)
            if not (wf > 0.0) or not np.isfinite(wf):
                raise GraphConstructionError(
                    f"edge {u}->{v} has non-positive or non-finite weight {w}"
                )
            prev = best[u].get(v)
            if prev is None or wf < prev:
                best[u][v] = wf

        #: Per vertex, its outgoing ``(target, weight)`` pairs sorted by
        #: target (read-only): a SILC block's colour is a position in
        #: this list, so a refinement step reads its next hop and the
        #: link's weight with one index.
        self.out_edges: list[tuple[tuple[int, float], ...]] = [
            tuple(sorted(d.items())) for d in best
        ]
        #: Per vertex, ``{target: weight}`` over its outgoing edges
        #: (read-only): :meth:`edge_weight`'s O(1) lookup only -- the
        #: refinement walk reads :attr:`out_edges` by rank instead.
        self.out_weights: list[dict[int, float]] = best
        #: Every edge's reverse exists with the same weight (true of
        #: every generated network): a shortest path read backwards is
        #: one, so a walk may run from either end.
        self.symmetric: bool = all(
            best[v].get(u) == w for u, d in enumerate(best) for v, w in d.items()
        )
        radj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        for u, d in enumerate(best):
            for v, w in d.items():
                radj[v].append((u, w))
        #: Per vertex, its incoming ``(source, weight)`` pairs sorted by
        #: source (read-only): the backward searches of the labelling
        #: build read it directly.
        self.in_edges: list[tuple[tuple[int, float], ...]] = [
            tuple(sorted(r)) for r in radj
        ]
        self._edge_count = sum(len(d) for d in best)
        self._csr_cache: sparse.csr_matrix | None = None
        self._ratio_cache: float | None = None
        self._digest_cache: int | None = None

    # ------------------------------------------------------------------
    # Sizes and iteration
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return int(self.xs.size)

    @property
    def num_edges(self) -> int:
        return self._edge_count

    def vertices(self) -> range:
        return range(self.num_vertices)

    def iter_edges(self) -> Iterator[tuple[int, int, float]]:
        """Yield every directed edge as ``(source, target, weight)``."""
        for u, nbrs in enumerate(self.out_edges):
            for v, w in nbrs:
                yield (u, v, w)

    # ------------------------------------------------------------------
    # Vertex / edge access
    # ------------------------------------------------------------------
    def check_vertex(self, u: int) -> int:
        if not (0 <= u < len(self.out_edges)):
            raise VertexNotFound(u, self.num_vertices)
        return u

    def vertex_point(self, u: int) -> Point:
        self.check_vertex(u)
        return Point(float(self.xs[u]), float(self.ys[u]))

    def neighbors(self, u: int) -> tuple[tuple[int, float], ...]:
        """Outgoing ``(target, weight)`` pairs of ``u``, sorted by target."""
        self.check_vertex(u)
        return self.out_edges[u]

    def out_degree(self, u: int) -> int:
        return len(self.neighbors(u))

    def out_degrees(self) -> np.ndarray:
        """Every vertex's out-degree, as an int64 array."""
        return np.fromiter(map(len, self.out_edges), dtype=np.int64, count=len(self.out_edges))

    @property
    def max_out_degree(self) -> int:
        """The largest out-degree: what decides the width of a SILC
        index's colour column."""
        return max(map(len, self.out_edges))

    def out_edge_digest(self) -> int:
        """A CRC-32 of every vertex's out-degree, out-edge targets and
        weights, in :attr:`out_edges` order, and position: a SILC index's
        colours are positions in those lists and its λ relate path
        weights to Euclidean distances, so an index saved with one
        network is refused at load by another whose digest differs.
        (``zlib``, not ``hashlib``: importing OpenSSL raised a bare
        index load's peak RSS by ~4 MB.)  Cached: the network is
        immutable, so a build's save, a load and every shard worker
        forked after either reuse one computation."""
        if self._digest_cache is not None:
            return self._digest_cache
        degrees = self.out_degrees()
        pairs = np.fromiter(
            chain.from_iterable(chain.from_iterable(self.out_edges)),
            dtype=np.float64,
            count=2 * int(degrees.sum()),
        ).reshape(-1, 2)
        crc = zlib.crc32(pairs[:, 0].astype("<i8"), zlib.crc32(degrees.astype("<i8")))
        for array in (pairs[:, 1], self.xs, self.ys):
            crc = zlib.crc32(array.astype("<f8"), crc)
        self._digest_cache = crc
        return crc

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of the directed edge ``u -> v``.

        Raises :class:`VertexNotFound` for a source outside the
        network and :class:`EdgeNotFound` if the edge does not exist.
        One dict read (parallel edges collapsed to their minimum at
        construction, so one entry per target is exact).
        """
        weights = self.out_weights
        if not (0 <= u < len(weights)):
            raise VertexNotFound(u, len(weights))
        w = weights[u].get(v)
        if w is None:
            raise EdgeNotFound(u, v)
        return w

    def has_edge(self, u: int, v: int) -> bool:
        try:
            self.edge_weight(u, v)
        except EdgeNotFound:
            return False
        return True

    def euclidean(self, u: int, v: int) -> float:
        """Straight-line ("as the crow flies") distance between vertices."""
        self.check_vertex(u)
        self.check_vertex(v)
        return float(np.hypot(self.xs[u] - self.xs[v], self.ys[u] - self.ys[v]))

    # ------------------------------------------------------------------
    # Bulk / linear-algebra views
    # ------------------------------------------------------------------
    def to_csr(self) -> sparse.csr_matrix:
        """The weighted adjacency matrix in CSR form (cached).

        Missing edges are structural zeros, as expected by
        :func:`scipy.sparse.csgraph.dijkstra`.
        """
        if self._csr_cache is None:
            from scipy import sparse

            rows: list[int] = []
            cols: list[int] = []
            vals: list[float] = []
            for u, v, w in self.iter_edges():
                rows.append(u)
                cols.append(v)
                vals.append(w)
            self._csr_cache = sparse.csr_matrix(
                (vals, (rows, cols)),
                shape=(self.num_vertices, self.num_vertices),
            )
        return self._csr_cache

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def num_strongly_connected_components(self) -> int:
        from scipy.sparse import csgraph

        n_comp, _ = csgraph.connected_components(self.to_csr(), connection="strong")
        return int(n_comp)

    def require_strongly_connected(self) -> None:
        """Raise :class:`DisconnectedNetwork` unless the graph is one SCC.

        The SILC precompute colors *every* vertex from every source, so
        it calls this before doing any work.
        """
        n = self.num_strongly_connected_components()
        if n != 1:
            raise DisconnectedNetwork(n)

    def min_euclidean_ratio(self) -> float:
        """Smallest edge-weight / Euclidean-length ratio over all edges.

        A ratio >= 1 means network distance dominates straight-line
        distance, which makes Euclidean distance an admissible A*
        heuristic (and the IER filter correct).  Generators in this
        package guarantee ratio >= 1.  The value is cached: the graph
        is immutable.
        """
        if self._ratio_cache is None:
            ratio = np.inf
            for u, v, w in self.iter_edges():
                d = self.euclidean(u, v)
                if d > 0:
                    ratio = min(ratio, w / d)
            self._ratio_cache = float(ratio)
        return self._ratio_cache

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def with_edges(self, extra: Iterable[tuple[int, int, float]]) -> SpatialNetwork:
        """A new network with additional edges."""
        return SpatialNetwork(
            self.xs, self.ys, list(self.iter_edges()) + list(extra)
        )

    def without_edges(self, removed: Iterable[tuple[int, int]]) -> SpatialNetwork:
        """A new network with the given directed edges removed.

        Models the paper's road-closure update scenario: derive a new
        network and rebuild only what changed.
        """
        gone = set(removed)
        kept = [(u, v, w) for u, v, w in self.iter_edges() if (u, v) not in gone]
        return SpatialNetwork(self.xs, self.ys, kept)

    def nearest_vertex(self, p: Point) -> int:
        """The vertex closest (Euclidean) to an arbitrary world point.

        Used to snap free-floating query locations onto the network.
        """
        d2 = (self.xs - p.x) ** 2 + (self.ys - p.y) ** 2
        return int(np.argmin(d2))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpatialNetwork(num_vertices={self.num_vertices}, "
            f"num_edges={self.num_edges})"
        )
