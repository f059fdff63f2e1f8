"""The spatial index over the object set ``S``.

Wraps the PMR quadtree with the lookups the query algorithms need:

* best-first traversal metadata (per-node rectangles, edge-object
  flags for sound block bounds) and every object's target anchors,
* the vertex -> objects map INE uses when it settles a vertex, and
  the tail-vertex -> edge-object map next to it (all query-independent,
  so built once here rather than per query),
* Euclidean best-first scans for the IER baseline.

The index shares its grid embedding with the SILC index so that
object-index blocks and shortest-path-quadtree blocks can be
intersected purely in Morton-code space.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterator

from repro.geometry.grid import GridEmbedding
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.network.graph import SpatialNetwork
from repro.objects.model import (
    ObjectSet,
    SpatialObject,
    VertexPosition,
    position_parts,
    position_point,
    target_anchors,
)
from repro.quadtree.pmr import PMRNode, PMRQuadtree


class ObjectIndex:
    """PMR-quadtree index over an :class:`ObjectSet`."""

    def __init__(
        self,
        network: SpatialNetwork,
        objects: ObjectSet,
        embedding: GridEmbedding,
        bucket_capacity: int = 8,
    ) -> None:
        self.network = network
        self.objects = objects
        self.tree = PMRQuadtree(embedding, capacity=bucket_capacity)
        #: Vertex -> ids of the objects sitting exactly on it (INE reads
        #: it at every vertex it settles).
        self.vertex_objects: dict[int, list[int]] = defaultdict(list)
        #: Tail vertex -> ``(oid, remaining)`` for every edge part: the
        #: object lies ``remaining`` past the vertex along the part's
        #: edge, in either direction the edge can be travelled (INE
        #: reaches edge objects through these when it settles a vertex).
        self.edge_candidates: dict[int, list[tuple[int, float]]] = defaultdict(list)
        #: Objects with at least one edge part, in object order.
        self.edge_objects: list[SpatialObject] = []
        #: ``(code, level)`` of every PMR node -> ``(world rect, subtree
        #: holds an edge object)``: the query-independent half of a
        #: block bound.
        self.node_info: dict[tuple[int, int], tuple[Rect, bool]] = {}
        #: oid -> ``(vertex, offset)`` anchors every path into the
        #: object passes through.  Vertex ids and edges are checked here
        #: (``position_point`` / ``edge_weight`` raise on a bad one), so
        #: a search builds its refinable distances without re-checking.
        self.target_anchors: dict[int, list[tuple[int, float]]] = {}
        for obj in objects:
            # Extents are indexed once per part so that every part's
            # neighborhood can discover the object; query engines
            # deduplicate by object id.
            anchors = self.target_anchors[obj.oid] = []
            for part in position_parts(obj.position):
                self.tree.insert(obj.oid, position_point(network, part))
                part_anchors = target_anchors(network, part)
                anchors.extend(part_anchors)
                if isinstance(part, VertexPosition):
                    if obj.oid not in self.vertex_objects[part.vertex]:
                        self.vertex_objects[part.vertex].append(obj.oid)
                    continue
                if not self.edge_objects or self.edge_objects[-1] is not obj:
                    self.edge_objects.append(obj)
                for vertex, remaining in part_anchors:
                    self.edge_candidates[vertex].append((obj.oid, remaining))
        self._compute_node_info()

    # ------------------------------------------------------------------
    # Structure metadata
    # ------------------------------------------------------------------
    def _compute_node_info(self) -> None:
        """Record every node's rectangle and whether its subtree
        contains an edge object.

        Block-level lambda bounds are only sound for vertex objects;
        nodes flagged here additionally take the (weaker but sound)
        Euclidean bound at query time.
        """
        edge_ids = {o.oid for o in self.edge_objects}

        def walk(node: PMRNode) -> bool:
            if node.is_leaf:
                flag = any(oid in edge_ids for oid, _, _ in node.entries)
            else:
                # Evaluate all children: every node needs its flag.
                flags = [walk(child) for child in node.children]
                flag = any(flags)
            self.node_info[(node.code, node.level)] = (self.tree.node_rect(node), flag)
            return flag

        walk(self.tree.root)

    def has_edge_objects(self, node: PMRNode) -> bool:
        return self.node_info[(node.code, node.level)][1]

    def node_rect(self, node: PMRNode) -> Rect:
        return self.node_info[(node.code, node.level)][0]

    @property
    def root(self) -> PMRNode:
        return self.tree.root

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def get(self, oid: int) -> SpatialObject:
        return self.objects[oid]

    # ------------------------------------------------------------------
    # Euclidean best-first scan (IER's filter stage)
    # ------------------------------------------------------------------
    def iter_euclidean(self, origin: Point) -> Iterator[tuple[int, float]]:
        """Yield ``(oid, euclidean_distance)`` in increasing distance.

        The classic incremental nearest-neighbor traversal (Hjaltason
        & Samet 1995) over the PMR quadtree with Euclidean MINDIST.
        """
        import heapq
        import itertools

        counter = itertools.count()
        heap: list[tuple[float, int, str, object]] = [
            (
                self.node_rect(self.root).min_distance_to_point(origin),
                next(counter),
                "node",
                self.root,
            )
        ]
        while heap:
            dist, _, kind, payload = heapq.heappop(heap)
            if kind == "object":
                yield payload, dist  # type: ignore[misc]
                continue
            node: PMRNode = payload  # type: ignore[assignment]
            if node.is_leaf:
                for oid, _, point in node.entries:
                    heapq.heappush(
                        heap,
                        (origin.distance_to(point), next(counter), "object", oid),
                    )
            else:
                for child in node.children:
                    if child.entries or not child.is_leaf:
                        heapq.heappush(
                            heap,
                            (
                                self.node_rect(child).min_distance_to_point(origin),
                                next(counter),
                                "node",
                                child,
                            ),
                        )
