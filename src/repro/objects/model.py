"""Objects on a spatial network.

The paper decouples the object domain ``S`` (restaurants, gas
stations, ...) from the network-vertex domain ``V``: objects live in
their own index and reference the network only through a *network
position*.  Supported positions mirror the paper's input types (p.21):

* :class:`VertexPosition` -- the object sits on an intersection;
* :class:`EdgePosition`   -- the object sits a fraction of the way
  along a road segment (the paper's edge objects; face/extent objects
  reduce to sets of these).

Every object also carries its spatial :class:`Point` so it can be
stored in the PMR quadtree.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Iterator, Sequence

from repro.geometry.point import Point
from repro.network.graph import SpatialNetwork


@dataclass(frozen=True, slots=True)
class VertexPosition:
    """An object located exactly on network vertex ``vertex``."""

    vertex: int


@dataclass(frozen=True, slots=True)
class EdgePosition:
    """An object ``fraction`` of the way along directed edge a -> b.

    ``fraction`` is in ``[0, 1]``; 0 is at ``a``, 1 at ``b``.  If the
    reverse edge ``b -> a`` exists, the object is reachable from both
    ends (the usual bidirectional road case).
    """

    a: int
    b: int
    fraction: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.fraction <= 1.0):
            raise ValueError(f"fraction must be in [0, 1]: {self.fraction}")


@dataclass(frozen=True, slots=True)
class ExtentPosition:
    """An object occupying several network positions at once.

    The paper's "face objects" and "objects with extents" (p.21): a
    park bordering several road segments, a mall with entrances on
    different streets.  The network distance to such an object is the
    minimum over its parts (any entrance will do).
    """

    parts: tuple[VertexPosition | EdgePosition, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("an extent needs at least one part")
        for part in self.parts:
            if not isinstance(part, (VertexPosition, EdgePosition)):
                raise TypeError(f"extent part must be simple: {part!r}")


NetworkPosition = VertexPosition | EdgePosition | ExtentPosition


def position_parts(
    position: NetworkPosition,
) -> tuple[VertexPosition | EdgePosition, ...]:
    """The simple (vertex/edge) parts of any network position."""
    if isinstance(position, ExtentPosition):
        return position.parts
    return (position,)


@dataclass(frozen=True, slots=True)
class SpatialObject:
    """One member of the object set ``S``."""

    oid: int
    position: NetworkPosition
    point: Point


def position_point(network: SpatialNetwork, position: NetworkPosition) -> Point:
    """The spatial point of a network position.

    For extents this is the centroid of the part points -- a display
    anchor only; spatial indexing stores every part's point so that
    Euclidean lower bounds stay sound.
    """
    if isinstance(position, VertexPosition):
        return network.vertex_point(position.vertex)
    if isinstance(position, ExtentPosition):
        points = [position_point(network, part) for part in position.parts]
        return Point(
            sum(p.x for p in points) / len(points),
            sum(p.y for p in points) / len(points),
        )
    pa = network.vertex_point(position.a)
    pb = network.vertex_point(position.b)
    return pa.lerp(pb, position.fraction)


def target_anchors(
    network: SpatialNetwork, position: NetworkPosition
) -> list[tuple[int, float]]:
    """``(vertex, offset)`` pairs through which every incoming path passes.

    For extents: the union over parts (reaching any part reaches the
    object).
    """
    if isinstance(position, ExtentPosition):
        anchors: list[tuple[int, float]] = []
        for part in position.parts:
            anchors.extend(target_anchors(network, part))
        return anchors
    if isinstance(position, VertexPosition):
        return [(position.vertex, 0.0)]
    anchors = [(position.a, position.fraction * network.edge_weight(position.a, position.b))]
    if network.has_edge(position.b, position.a):
        anchors.append(
            (position.b, (1.0 - position.fraction) * network.edge_weight(position.b, position.a))
        )
    return anchors


class ObjectSet:
    """An immutable collection of spatial objects with id lookup."""

    def __init__(self, objects: Iterable[SpatialObject]) -> None:
        self._objects: list[SpatialObject] = list(objects)
        self._by_id = {o.oid: o for o in self._objects}
        if len(self._by_id) != len(self._objects):
            raise ValueError("object ids must be unique")

    def __len__(self) -> int:
        return len(self._objects)

    def __iter__(self) -> Iterator[SpatialObject]:
        return iter(self._objects)

    def __getitem__(self, oid: int) -> SpatialObject:
        return self._by_id[oid]

    def __contains__(self, oid: int) -> bool:
        return oid in self._by_id

    @property
    def ids(self) -> list[int]:
        return [o.oid for o in self._objects]

    def has_edge_objects(self) -> bool:
        return any(
            isinstance(part, EdgePosition)
            for o in self._objects
            for part in position_parts(o.position)
        )

    @staticmethod
    def at_vertices(
        network: SpatialNetwork, vertices: Sequence[int]
    ) -> ObjectSet:
        """Objects placed on the given vertices, ids ``0..len-1``.

        The same vertex may appear multiple times (two restaurants on
        one corner).
        """
        objects = [
            SpatialObject(
                oid=i,
                position=VertexPosition(v),
                point=network.vertex_point(v),
            )
            for i, v in enumerate(vertices)
        ]
        return ObjectSet(objects)

    @staticmethod
    def on_edges(
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

    @staticmethod
    def with_extents(
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
