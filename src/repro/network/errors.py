"""Exception hierarchy for the spatial-network layer.

A single root type, :class:`NetworkError`, lets callers catch every
network-layer failure with one ``except`` clause while still being able
to distinguish construction errors from query-time errors.
"""

from __future__ import annotations


class NetworkError(Exception):
    """Base class for all spatial-network errors."""


class GraphConstructionError(NetworkError):
    """The vertex/edge data handed to :class:`SpatialNetwork` is invalid."""


class VertexNotFound(NetworkError, KeyError):
    """A vertex id outside ``[0, num_vertices)`` was referenced."""

    # The message as the CLI and the wire show it, not KeyError's quoted repr.
    __str__ = Exception.__str__

    def __init__(self, vertex: int, num_vertices: int) -> None:
        super().__init__(f"vertex {vertex} not in [0, {num_vertices})")
        self.vertex = vertex
        self.num_vertices = num_vertices


class EdgeNotFound(NetworkError, KeyError):
    """No edge exists between the given pair of vertices."""

    def __init__(self, source: int, target: int) -> None:
        super().__init__(f"no edge {source} -> {target}")
        self.source = source
        self.target = target


class OutEdgeNotFound(EdgeNotFound):
    """A vertex has no out-edge at the given position of its out-edge
    list: a SILC colour that names no first edge.  ``rank`` is the
    position; there is no ``target`` to name (it is ``None``)."""

    def __init__(self, source: int, rank: int, degree: int) -> None:
        NetworkError.__init__(
            self,
            f"vertex {source} has no out-edge {rank} (out-degree {degree}); "
            "the index next-hop data is inconsistent",
        )
        self.source = source
        self.target = None
        self.rank = rank


class DisconnectedNetwork(NetworkError):
    """An operation requiring strong connectivity saw a disconnected graph.

    SILC precomputes a shortest path between *every* pair of vertices,
    so the framework requires strongly connected inputs; generators in
    :mod:`repro.network.generators` always return such networks.
    """

    def __init__(self, num_components: int) -> None:
        super().__init__(
            f"network has {num_components} strongly connected components; "
            "SILC requires exactly 1"
        )
        self.num_components = num_components


class PathNotFound(NetworkError):
    """No path exists between the requested source and destination."""

    def __init__(self, source: int, target: int) -> None:
        super().__init__(f"no path from {source} to {target}")
        self.source = source
        self.target = target
