"""Test inputs and reference builds the library itself never calls.

Nothing outside ``tests/`` reaches these (``tools/reach.py --check``
keeps such code out of ``src/repro``), but tests rely on them:

* generators of test inputs -- objects on edges and with extents,
  kNN workloads, a delay on a shard's pipe;
* :func:`iter_nodes`, a walk over every node of a PMR quadtree;
* :func:`build_region_blocks`, the one-coloring region build that the
  chunked :func:`~repro.quadtree.region.region_block_columns` is held
  to, row for row.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.datasets import random_vertex_objects
from repro.faults import FaultInjector
from repro.network.graph import SpatialNetwork
from repro.objects.model import (
    EdgePosition,
    ExtentPosition,
    ObjectSet,
    SpatialObject,
    VertexPosition,
    position_point,
)
from repro.quadtree.blocks import BlockTable
from repro.quadtree.pmr import PMRNode, PMRQuadtree
from repro.quadtree.region import region_block_columns, split_levels


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
    return BlockTable(**columns)
