"""Test inputs and reference builds the library itself never calls.

Nothing outside ``tests/`` reaches these (``tools/reach.py --check``
keeps such code out of ``src/repro``), but tests rely on them:

* generators of test inputs -- objects on edges and with extents,
  kNN workloads, a delay on a shard's pipe;
* :func:`iter_nodes`, a walk over every node of a PMR quadtree;
* :func:`out_rank` and :func:`ranked`, the colours an index stores, one
  vertex at a time;
* :class:`BlockTable`, the library's one-vertex view with the
  validating constructor, :meth:`~BlockTable.overlapping`,
  :attr:`~BlockTable.ends` and :meth:`~BlockTable.storage_bytes`, and
  :func:`table_of`, a vertex's table of an index as one;
* :func:`build_region_blocks`, the one-coloring region build that the
  chunked :func:`~repro.quadtree.region.region_block_columns` is held
  to, row for row;
* :func:`shortest_path_tree`, a whole or early-exit single-source
  Dijkstra tree over the library's one counted search,
  :func:`~repro.network.dijkstra.expand`;
* :class:`KMinDistTracker` and :func:`reference_knn_m`, the kNN-M
  search with its KMINDIST bookkeeping as an object of its own, which
  the kernel's inline lists are held to, decision for decision;
* :func:`checked_bounds`, the validate-and-clamp the two per-step
  ``refine`` methods carry inline, as a function their bounds are held
  to bit for bit.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from heapq import heappop, heappush

import numpy as np

from repro.datasets import random_vertex_objects
from repro.faults import FaultInjector
from repro.geometry.morton import MAX_ORDER, block_cells
from repro.network.dijkstra import DijkstraStats, expand
from repro.network.errors import PathNotFound
from repro.network.graph import SpatialNetwork
from repro.objects.model import (
    EdgePosition,
    ExtentPosition,
    ObjectSet,
    SpatialObject,
    VertexPosition,
    position_point,
)
from repro.quadtree import blocks
from repro.quadtree.blocks import COLUMN_DTYPES, COLUMNS, RECORD_BYTES, compute_ends, narrow_lambda
from repro.quadtree.pmr import PMRNode, PMRQuadtree
from repro.quadtree.region import region_block_columns, split_levels
from repro.query.distances import QueryHandle
from repro.query.location import resolve_location
from repro.silc.intervals import MAX_REL_GAP, invalid_bounds
from repro.silc.sp_quadtree import choose_grid_order


def checked_bounds(
    lo: float, hi: float, prev_lo: float = 0.0, prev_hi: float = math.inf
) -> tuple[float, float]:
    """Validate fresh scalar bounds and, unless exact, clamp them to the
    previous ones: both contain the true distance, so their overlap
    does too.

    Disjoint by rounding, they collapse to the midpoint; by more, one
    of them excluded the true distance: ``ValueError``.
    """
    if not (0.0 <= lo <= hi):
        raise invalid_bounds(lo, hi)
    if lo != hi:
        lo = max(lo, prev_lo)
        hi = min(hi, prev_hi)
        if lo > hi:
            if lo - hi > MAX_REL_GAP * lo:
                raise invalid_bounds(lo, hi)
            lo = hi = (lo + hi) / 2.0
    return lo, hi


# ----------------------------------------------------------------------
# Networks
# ----------------------------------------------------------------------

def crowded(network, order: int):
    """``network`` plus one vertex three quarters of an order-``order``
    grid cell to the right of one of its vertices, joined to it both
    ways: the first vertex at which the smallest grid giving every
    vertex its own cell (``choose_grid_order``) has exactly that order.
    A small network on a large grid, e.g. past order 8, the largest
    whose Morton codes fit uint16."""
    bounds = choose_grid_order(network)[0].bounds
    gap = 0.75 * (bounds.xmax - bounds.xmin) / 2**order
    c = network.num_vertices
    for a in network.vertices():
        net = SpatialNetwork(
            np.append(network.xs, network.xs[a] + gap),
            np.append(network.ys, network.ys[a]),
            [*network.iter_edges(), (a, c, gap), (c, a, gap)],
        )
        if choose_grid_order(net)[0].order == order:
            return net
    raise AssertionError(f"no vertex of the network gives a grid of order {order}")


# ----------------------------------------------------------------------
# Object sets
# ----------------------------------------------------------------------

def objects_on_edges(
    network: SpatialNetwork,
    placements: Sequence[tuple[int, int, float]],
) -> ObjectSet:
    """Objects placed at ``(a, b, fraction)`` edge positions."""
    objects = []
    for i, (a, b, fraction) in enumerate(placements):
        network.edge_weight(a, b)  # validates the edge exists
        pos = EdgePosition(a, b, fraction)
        objects.append(
            SpatialObject(oid=i, position=pos, point=position_point(network, pos))
        )
    return ObjectSet(objects)


def objects_with_extents(
    network: SpatialNetwork,
    extents: Sequence[Sequence[VertexPosition | EdgePosition]],
) -> ObjectSet:
    """Objects each occupying several vertex/edge positions."""
    objects = []
    for i, parts in enumerate(extents):
        for part in parts:
            if isinstance(part, EdgePosition):
                network.edge_weight(part.a, part.b)
            else:
                network.check_vertex(part.vertex)
        pos = ExtentPosition(tuple(parts))
        objects.append(
            SpatialObject(oid=i, position=pos, point=position_point(network, pos))
        )
    return ObjectSet(objects)


def random_edge_objects(
    network: SpatialNetwork, count: int, seed: int = 0
) -> ObjectSet:
    """Objects placed at random fractions along random edges."""
    if count < 1:
        raise ValueError("count must be positive")
    rng = np.random.default_rng(seed)
    edges = list(network.iter_edges())
    placements = []
    for _ in range(count):
        a, b, _ = edges[int(rng.integers(len(edges)))]
        placements.append((a, b, float(rng.uniform(0.05, 0.95))))
    return objects_on_edges(network, placements)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """A batch of queries against one object set."""

    network: SpatialNetwork
    objects: ObjectSet
    queries: list[int]
    k: int
    seed: int

    @property
    def density(self) -> float:
        return len(self.objects) / self.network.num_vertices


def knn_workload(
    network: SpatialNetwork,
    density: float,
    k: int,
    num_queries: int = 20,
    seed: int = 0,
) -> Workload:
    """A reproducible kNN workload at the paper's parameters.

    Query vertices are sampled independently of the object set (the
    decoupling the paper stresses: the same index serves any S and any
    q).
    """
    if num_queries < 1:
        raise ValueError("num_queries must be positive")
    rng = np.random.default_rng(seed)
    objects = random_vertex_objects(network, density=density, seed=seed + 1)
    queries = [int(v) for v in rng.integers(0, network.num_vertices, num_queries)]
    return Workload(
        network=network, objects=objects, queries=queries, k=k, seed=seed
    )


# ----------------------------------------------------------------------
# Faults
# ----------------------------------------------------------------------

def delay_pipe(injector: FaultInjector, shard: int, seconds: float) -> FaultInjector:
    """Add ``seconds`` of latency before every request to ``shard``."""
    if seconds < 0:
        raise ValueError("delay must be non-negative")
    with injector._lock:
        injector._delay[shard] = seconds
    return injector


# ----------------------------------------------------------------------
# Shortest-path trees
# ----------------------------------------------------------------------

@dataclass
class ShortestPathTree:
    """Result of a single-source Dijkstra run.

    ``dist[v]`` is ``math.inf`` and ``pred[v]`` is ``-1`` for vertices
    that were not reached (either unreachable or cut off by early
    exit).
    """

    source: int
    dist: list[float]
    pred: list[int]
    stats: DijkstraStats = field(default_factory=DijkstraStats)

    def path_to(self, target: int) -> list[int]:
        """The vertex sequence from the source to ``target``.

        Raises :class:`PathNotFound` when the target was not reached.
        """
        if not math.isfinite(self.dist[target]):
            raise PathNotFound(self.source, target)
        path = [target]
        while path[-1] != self.source:
            path.append(self.pred[path[-1]])
        path.reverse()
        return path


def shortest_path_tree(
    network: SpatialNetwork,
    source: int,
    targets: Iterable[int] | None = None,
) -> ShortestPathTree:
    """Single-source shortest paths; with ``targets``, the search stops
    as soon as every target has settled (the distances of vertices it
    did not settle may stay ``inf``)."""
    network.check_vertex(source)
    remaining = None if targets is None else {network.check_vertex(t) for t in targets}
    n = network.num_vertices
    tree = ShortestPathTree(source, [math.inf] * n, [-1] * n)
    for u, _ in expand(network, [(source, 0.0)], tree.dist, tree.pred, tree.stats):
        if remaining is not None:
            remaining.discard(u)
            if not remaining:
                break
    return tree


# ----------------------------------------------------------------------
# Block tables
# ----------------------------------------------------------------------

class BlockTable(blocks.BlockTable):
    """The library's one-vertex view, plus what only tests use.

    The constructor owns its columns: it coerces them to
    :data:`~repro.quadtree.blocks.COLUMN_DTYPES` (the lambdas through
    :func:`~repro.quadtree.blocks.narrow_lambda`) and refuses codes
    outside the largest grid, unsorted codes and overlapping blocks.
    :meth:`view` skips all of that, as the library's does.
    """

    __slots__ = ()

    def __init__(self, codes, levels, colors, lam_min, lam_max) -> None:
        codes = np.asarray(codes, dtype=np.int64)
        levels = np.asarray(levels, dtype=np.int8)
        if codes.size and not (0 <= codes.min() and codes.max() < block_cells(MAX_ORDER)):
            raise ValueError("block codes must lie inside the largest grid")
        arrays = tuple(
            np.asarray(column, dtype=COLUMN_DTYPES[name])
            for name, column in zip(
                COLUMNS, (codes, levels, colors, *narrow_lambda(lam_min, lam_max)), strict=True
            )
        )
        if any(a.shape != codes.shape for a in arrays):
            raise ValueError("block table columns must have equal length")
        # Order and disjointness are checked on the int64 codes: a
        # uint32 difference would wrap instead of going negative.
        if codes.size > 1:
            if not np.all(np.diff(codes) > 0):
                raise ValueError("block codes must be strictly increasing")
            if not np.all(compute_ends(codes, levels)[:-1] <= codes[1:]):
                raise ValueError("blocks must be disjoint")
        bits = [lam.view(np.uint16) for lam in arrays[3:]]
        self.columns = tuple(map(memoryview, (*arrays[:3], *bits)))

    @property
    def ends(self) -> np.ndarray:
        """Exclusive end codes."""
        return compute_ends(self.codes, self.levels)

    def overlapping(self, lo: int, hi: int) -> range:
        """Row indices of blocks intersecting the code range ``[lo, hi)``.

        Disjoint sorted blocks intersecting an interval form a
        contiguous run, so the result is a :class:`range`.
        """
        if hi <= lo:
            return range(0)
        codes, levels = self.columns[:2]
        start = bisect_right(codes, lo) - 1
        if start < 0 or codes[start] + (1 << 2 * levels[start]) <= lo:
            start += 1
        end = bisect_left(codes, hi)
        return range(start, end)

    def storage_bytes(self, record_bytes: int = RECORD_BYTES) -> int:
        """Simulated on-disk footprint of the table."""
        return len(self) * record_bytes


def out_rank(network: SpatialNetwork, u: int, v: int) -> int:
    """The colour naming edge ``u -> v``: its position in ``u``'s
    out-edge list (``ValueError`` when there is no such edge)."""
    return [w for w, _ in network.neighbors(u)].index(v)


def ranked(
    network: SpatialNetwork, source: int, first_hops: np.ndarray, dtype: np.dtype
) -> np.ndarray:
    """A shortest-path map of ``source`` -- first-hop vertex ids -- as
    the colours an index stores, one vertex at a time: the rank of the
    first edge, ``OWN_VERTEX`` for ``source`` itself, ``-1`` kept, in
    the index's colour ``dtype``."""
    colors = [
        blocks.OWN_VERTEX if v == source else -1 if v < 0 else out_rank(network, source, v)
        for v in first_hops.tolist()
    ]
    return np.array(colors, dtype=dtype)


def table_of(index, v: int) -> BlockTable:
    """Vertex ``v``'s table of ``index`` as a :class:`BlockTable`:
    the same memory as ``index.tables[v]``."""
    return BlockTable.view(*index.tables[v].columns)


# ----------------------------------------------------------------------
# Reference builds
# ----------------------------------------------------------------------

def iter_nodes(tree: PMRQuadtree) -> Iterator[PMRNode]:
    """Depth-first iteration over every node of ``tree``."""
    stack = [tree.root]
    while stack:
        node = stack.pop()
        yield node
        if node.children is not None:
            stack.extend(node.children)


def build_region_blocks(
    sorted_codes: np.ndarray,
    colors: np.ndarray,
    values: np.ndarray,
    grid_order: int,
) -> BlockTable:
    """Build the maximal single-color Morton blocks of one coloring.

    The ``m = 1`` case of :func:`region_block_columns`.

    Parameters
    ----------
    sorted_codes:
        Morton codes of the points, **strictly increasing**.
    colors:
        Integer color per point, aligned with ``sorted_codes``.
    values:
        Float value per point; each block records the min and max over
        its points (the lambda interval).
    grid_order:
        The grid spans ``4**grid_order`` cells: the root block.

    Returns
    -------
    A :class:`BlockTable` whose blocks are disjoint, cover every input
    point, and are *maximal*: the four children of any coarser aligned
    block would mix colors (or the block is the root).
    """
    codes = np.asarray(sorted_codes, dtype=np.int64)
    colors = np.asarray(colors)
    values = np.asarray(values, dtype=np.float64)
    if colors.size != codes.size or values.size != codes.size:
        raise ValueError("codes, colors and values must be aligned")
    _, columns = region_block_columns(
        codes,
        split_levels(codes, grid_order),
        colors.reshape(1, -1),
        values.reshape(1, -1),
    )
    return table_view(*(columns[name] for name in COLUMNS))


def table_view(codes, levels, colors, lam_min, lam_max) -> BlockTable:
    """``BlockTable.view`` over columns whose lambdas are float16, as
    the region kernel writes them: the view takes their uint16 bits."""
    return BlockTable.view(
        codes, levels, colors, lam_min.view(np.uint16), lam_max.view(np.uint16)
    )


# ----------------------------------------------------------------------
# kNN-M with its KMINDIST bookkeeping as an object
# ----------------------------------------------------------------------

class KMinDistTracker:
    """Sound lower bound on the k-th neighbor distance (kNN-M).

    Every object is either *seen* (its interval lower bound is in
    ``lows``) or hidden under an unexpanded block of the queue (its
    distance is at least that block's bound, hence at least
    ``min_block``).  The k-th neighbor distance therefore never falls
    below ``min(k-th smallest seen bound, smallest queued block
    bound)`` -- and any object whose *upper* bound is below that value
    is certainly one of the k nearest.
    """

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

    def certain(self, state, confirmed: list) -> bool:
        """Whether ``state`` is certainly one of the k nearest: below the
        bound nothing can displace it; at the bound it counts only while
        there is a slot for it beside every object that may still be
        closer and every one accepted at or past it."""
        bound = self.value()
        if state.hi != bound:
            return state.hi < bound
        closer = bisect_left(self.lows, bound) - (state.lo < bound)
        return closer + len([s for s in confirmed if s.lo >= bound]) < self.k


def reference_knn_m(index, object_index, query, k: int) -> dict:
    """kNN-M (bounds only) as the paper states it: one queue, every
    refined object pushed back, a :class:`KMinDistTracker` told of every
    object and block, and the bounds from ``QueryHandle.block_bounds`` /
    ``object_state``.  Returns the answer and the counts the kernel
    reports for it."""
    handle = QueryHandle(index, object_index, resolve_location(index.network, query))
    tracker = KMinDistTracker(k)
    heap: list = []
    states: dict = {}
    confirmed: list = []
    first_k: list[float] = []
    bound = math.inf
    seq = accepts = collisions = 0
    root = object_index.root
    if root.children is not None or root.entries:
        lo = handle.block_bounds((root,))[0]
        seq = 1
        heap.append((lo, seq, 0, root))
        tracker.block_pushed(lo)
    while heap and len(confirmed) < k:
        lo, _, kind, payload = heappop(heap)
        if kind == 0:
            tracker.block_popped(lo)
        if lo >= bound:
            break
        if kind == 0:
            popped = bound
            if payload.children is None:
                fresh = []
                for oid, _, _ in payload.entries:
                    if oid in states:
                        continue
                    state = states[oid] = handle.object_state(oid)
                    fresh.append(state)
                    if len(first_k) < k:
                        first_k.append(state.hi)
                        if len(first_k) == k:
                            bound = max(first_k)
                    tracker.add(state.lo)
                for state in fresh:
                    if len(confirmed) < k and tracker.certain(state, confirmed):
                        accepts += 1
                        confirmed.append(state)
                    elif state.lo < popped:
                        seq += 1
                        heappush(heap, (state.lo, seq, 1, state))
            else:
                for child in object_index.live_children[payload.code, payload.level]:
                    child_bound = handle.block_bounds((child,))[0]
                    if child_bound < popped:
                        seq += 1
                        heappush(heap, (child_bound, seq, 0, child))
                        tracker.block_pushed(child_bound)
            continue
        state = payload
        if state.hi <= (heap[0][0] if heap else math.inf):
            confirmed.append(state)
            continue
        collisions += 1
        if tracker.certain(state, confirmed):
            accepts += 1
            confirmed.append(state)
            continue
        old_lo = state.lo
        state.refine()
        tracker.replace(old_lo, state.lo)
        if state.lo <= bound:
            seq += 1
            heappush(heap, (state.lo, seq, 1, state))
    return {
        "ids": [s.oid for s in confirmed[:k]],
        "kmindist_accepts": accepts,
        "kmindist_final": tracker.value(),
        "collisions": collisions,
        "queue_pushes": seq,
        "refinements": handle.counter.count,
        "objects_seen": len(states),
    }
