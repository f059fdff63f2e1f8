"""A bucket PMR-style quadtree over the object set ``S``.

The paper keeps the query-object domain *decoupled* from the network:
objects (restaurants, gas stations, ...) live in their own spatial
index -- a PMR quadtree -- which the kNN algorithm traverses
best-first, expanding NONLEAF blocks into children and LEAF blocks
into objects.  This module supplies that index.

Splitting follows the bucket discipline: a leaf that exceeds its
capacity splits into the four quadrants (recursively, until the
capacity holds or single-cell resolution is reached, where overflow is
tolerated -- the PMR analogue of its bounded-splitting rule).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.geometry.grid import GridEmbedding
from repro.geometry.morton import block_cells, morton_encode
from repro.geometry.point import Point
from repro.geometry.rect import Rect


@dataclass
class PMRNode:
    """One quadtree block: a leaf bucket or an internal split."""

    code: int
    level: int
    children: list[PMRNode] | None = None
    entries: list[tuple[int, int, Point]] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return self.children is None


class PMRQuadtree:
    """Quadtree index over identified points.

    Parameters
    ----------
    embedding:
        Grid embedding shared with the SILC index, so PMR blocks and
        shortest-path-quadtree blocks live on the same Morton grid and
        can be intersected by code arithmetic alone.
    capacity:
        Bucket size before a leaf splits.
    """

    def __init__(self, embedding: GridEmbedding, capacity: int = 8) -> None:
        if capacity < 1:
            raise ValueError("bucket capacity must be at least 1")
        self.embedding = embedding
        self.capacity = capacity
        self.root = PMRNode(code=0, level=embedding.order)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def insert(self, oid: int, point: Point) -> None:
        """Insert an identified point; duplicates of ``oid`` are allowed."""
        cx, cy = self.embedding.cell_of(point)
        cell = morton_encode(cx, cy)
        node = self.root
        while not node.is_leaf:
            node = self._child_for(node, cell)
        node.entries.append((oid, cell, point))
        self._size += 1
        self._split_if_needed(node)

    def _child_for(self, node: PMRNode, cell: int) -> PMRNode:
        assert node.children is not None
        step = block_cells(node.level - 1)
        idx = (cell - node.code) // step
        return node.children[int(idx)]

    def _split_if_needed(self, node: PMRNode) -> None:
        while len(node.entries) > self.capacity and node.level > 0:
            step = block_cells(node.level - 1)
            node.children = [
                PMRNode(code=node.code + i * step, level=node.level - 1)
                for i in range(4)
            ]
            for oid, cell, point in node.entries:
                child = node.children[int((cell - node.code) // step)]
                child.entries.append((oid, cell, point))
            node.entries = []
            # Only one child can still overflow past capacity when the
            # others received nothing; recurse into the fullest child.
            node = max(node.children, key=lambda c: len(c.entries))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def node_rect(self, node: PMRNode) -> Rect:
        """World-space rectangle of a node's block."""
        return self.embedding.block_world_rect(node.code, node.level)

