"""Query locations and their network anchors.

A query can start from a vertex, from a position along an edge, or
from an arbitrary point (snapped to the nearest vertex).  All query
algorithms reduce the location to *anchors*: pairs ``(vertex,
offset)`` such that every path out of the location passes through one
of the anchor vertices after traveling ``offset``.

Objects reduce symmetrically to *target anchors*
(:func:`repro.objects.model.target_anchors`, computed once per object
by the object index): every path into the object passes through an
anchor vertex and then travels ``offset`` more.  Distances between a
location and an object are minima over anchor pairs (plus the
degenerate same-edge segment, handled by :func:`same_edge_direct`).
"""

from __future__ import annotations

from repro.geometry.point import Point
from repro.network.graph import SpatialNetwork
from repro.objects.model import EdgePosition, ExtentPosition, NetworkPosition, VertexPosition

QueryLocation = "int | NetworkPosition | Point"


def resolve_location(
    network: SpatialNetwork, query: int | NetworkPosition | Point
) -> NetworkPosition:
    """Normalize any accepted query form to a network position."""
    if isinstance(query, int):
        network.check_vertex(query)
        return VertexPosition(query)
    if isinstance(query, (VertexPosition, EdgePosition)):
        return query
    if isinstance(query, Point):
        return VertexPosition(network.nearest_vertex(query))
    raise TypeError(f"unsupported query location: {query!r}")


def source_anchors(
    network: SpatialNetwork, position: NetworkPosition
) -> list[tuple[int, float]]:
    """``(vertex, offset)`` pairs through which every outgoing path passes.

    Extent positions are not supported as query locations: a traveler
    occupies one point, not a region.
    """
    if isinstance(position, ExtentPosition):
        raise TypeError("a query location must be a single vertex/edge position")
    if isinstance(position, VertexPosition):
        return [(position.vertex, 0.0)]
    anchors = [(position.b, (1.0 - position.fraction) * network.edge_weight(position.a, position.b))]
    if network.has_edge(position.b, position.a):
        anchors.append(
            (position.a, position.fraction * network.edge_weight(position.b, position.a))
        )
    return anchors


def same_edge_direct(
    network: SpatialNetwork, source: NetworkPosition, target: NetworkPosition
) -> float | None:
    """Length of the direct along-edge segment, when one exists.

    Covers the cases anchor decomposition misses: source and target on
    one segment, either orientation, with the target downstream along
    the source's edge or -- when the reverse edge exists -- along it.
    A vertex source at the same vertex as a vertex target is 0.
    """
    if isinstance(target, ExtentPosition):
        candidates = [
            d
            for part in target.parts
            if (d := same_edge_direct(network, source, part)) is not None
        ]
        return min(candidates) if candidates else None
    if isinstance(source, VertexPosition) and isinstance(target, VertexPosition):
        if source.vertex == target.vertex:
            return 0.0
        return None
    if isinstance(source, EdgePosition) and isinstance(target, EdgePosition):
        f, g = source.fraction, target.fraction
        if (source.a, source.b) == (target.a, target.b):
            if g >= f:
                return (g - f) * network.edge_weight(source.a, source.b)
            if network.has_edge(source.b, source.a):
                # Upstream: back along the reverse edge, where the
                # source sits 1 - f and the target 1 - g of the way.
                return (f - g) * network.edge_weight(source.b, source.a)
            return None
        if (source.b, source.a) == (target.a, target.b):
            # Opposite orientations of the same undirected segment: the
            # target sits 1 - g of the way along the source's edge, the
            # source 1 - f of the way along the target's.
            if 1.0 - g >= f:
                return (1.0 - g - f) * network.edge_weight(source.a, source.b)
            return (g - (1.0 - f)) * network.edge_weight(target.a, target.b)
        return None
    return None
