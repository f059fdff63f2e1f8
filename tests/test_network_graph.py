"""Unit tests for repro.network.graph."""

import numpy as np
import pytest

from repro.geometry import Point
from repro.network.errors import (
    DisconnectedNetwork,
    EdgeNotFound,
    GraphConstructionError,
    VertexNotFound,
)
from repro.network import SpatialNetwork


def triangle():
    """A strongly connected 3-cycle with distinct weights."""
    return SpatialNetwork(
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0)],
    )


class TestConstruction:
    def test_basic_counts(self):
        net = triangle()
        assert net.num_vertices == 3
        assert net.num_edges == 3

    def test_rejects_empty(self):
        with pytest.raises(GraphConstructionError):
            SpatialNetwork([], [], [])

    def test_rejects_mismatched_coords(self):
        with pytest.raises(GraphConstructionError):
            SpatialNetwork([0.0], [0.0, 1.0], [])

    def test_rejects_nonfinite_coords(self):
        with pytest.raises(GraphConstructionError):
            SpatialNetwork([0.0, np.nan], [0.0, 1.0], [])

    def test_rejects_self_loop(self):
        with pytest.raises(GraphConstructionError):
            SpatialNetwork([0.0, 1.0], [0.0, 0.0], [(0, 0, 1.0)])

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(GraphConstructionError):
            SpatialNetwork([0.0, 1.0], [0.0, 0.0], [(0, 1, 0.0)])
        with pytest.raises(GraphConstructionError):
            SpatialNetwork([0.0, 1.0], [0.0, 0.0], [(0, 1, -2.0)])

    def test_rejects_bad_vertex_ids(self):
        with pytest.raises(VertexNotFound):
            SpatialNetwork([0.0, 1.0], [0.0, 0.0], [(0, 5, 1.0)])

    def test_parallel_edges_keep_minimum(self):
        net = SpatialNetwork(
            [0.0, 1.0], [0.0, 0.0], [(0, 1, 5.0), (0, 1, 2.0), (0, 1, 9.0)]
        )
        assert net.num_edges == 1
        assert net.edge_weight(0, 1) == 2.0

    def test_directed_edges_are_independent(self):
        net = SpatialNetwork([0.0, 1.0], [0.0, 0.0], [(0, 1, 1.0), (1, 0, 7.0)])
        assert net.edge_weight(0, 1) == 1.0
        assert net.edge_weight(1, 0) == 7.0


class TestAccess:
    def test_vertex_point(self):
        assert triangle().vertex_point(1) == Point(1.0, 0.0)

    def test_vertex_bounds_checked(self):
        with pytest.raises(VertexNotFound):
            triangle().vertex_point(3)
        with pytest.raises(VertexNotFound):
            triangle().neighbors(-1)

    def test_neighbors_sorted(self):
        net = SpatialNetwork(
            [0.0, 1.0, 2.0],
            [0.0, 0.0, 0.0],
            [(0, 2, 1.0), (0, 1, 1.0)],
        )
        assert [v for v, _ in net.neighbors(0)] == [1, 2]

    def test_in_neighbors(self):
        net = triangle()
        assert net.in_edges[0] == ((2, 3.0),)

    def test_missing_edge_raises(self):
        with pytest.raises(EdgeNotFound):
            triangle().edge_weight(1, 0)

    def test_edge_weight_reads_the_per_vertex_dicts(self):
        """One ``{target: weight}`` per vertex, built with the adjacency:
        a parallel edge is already its minimum, and a miss raises what
        the adjacency scan raised."""
        net = SpatialNetwork(
            [0.0, 1.0, 2.0],
            [0.0, 0.0, 0.0],
            [(0, 1, 5.0), (0, 1, 2.0), (0, 2, 4.0), (1, 0, 1.0), (2, 0, 1.0)],
        )
        assert net.out_weights == [dict(net.neighbors(u)) for u in net.vertices()]
        assert net.edge_weight(0, 1) == 2.0
        for u in (-1, 3):
            with pytest.raises(VertexNotFound):
                net.edge_weight(u, 0)
        for v in (-1, 2, 3):
            with pytest.raises(EdgeNotFound):
                net.edge_weight(1, v)

    def test_has_edge(self):
        net = triangle()
        assert net.has_edge(0, 1)
        assert not net.has_edge(1, 0)

    def test_euclidean(self):
        assert triangle().euclidean(0, 1) == pytest.approx(1.0)

    def test_iter_edges_complete(self):
        assert sorted(triangle().iter_edges()) == [
            (0, 1, 1.0),
            (1, 2, 2.0),
            (2, 0, 3.0),
        ]

    def test_out_degree(self):
        assert triangle().out_degree(0) == 1


class TestViews:
    def test_csr_matches_edges(self):
        csr = triangle().to_csr()
        assert csr.shape == (3, 3)
        assert csr[0, 1] == 1.0
        assert csr[2, 0] == 3.0
        assert csr[1, 0] == 0.0

    def test_csr_cached(self):
        net = triangle()
        assert net.to_csr() is net.to_csr()

    def test_out_edge_digest_cached(self, monkeypatch):
        # Every index load compares it: the network is immutable, so
        # one pass over the out-edges serves them all.
        net = triangle()
        digest = net.out_edge_digest()
        monkeypatch.setattr(SpatialNetwork, "out_degrees", lambda self: pytest.fail("recomputed"))
        assert net.out_edge_digest() == digest

    def test_min_euclidean_ratio(self):
        # edge 0->1 has length 1 and weight 1 -> ratio 1 is the minimum
        assert triangle().min_euclidean_ratio() == pytest.approx(1.0)

    def test_nearest_vertex(self):
        assert triangle().nearest_vertex(Point(0.9, 0.1)) == 1


class TestConnectivity:
    def test_triangle_strongly_connected(self):
        triangle().require_strongly_connected()

    def test_disconnected_detected(self):
        net = SpatialNetwork([0.0, 1.0], [0.0, 0.0], [(0, 1, 1.0)])
        assert net.num_strongly_connected_components() == 2
        with pytest.raises(DisconnectedNetwork):
            net.require_strongly_connected()


class TestDerivation:
    def test_with_edges(self):
        net = triangle().with_edges([(1, 0, 4.0)])
        assert net.edge_weight(1, 0) == 4.0
        assert net.num_edges == 4

    def test_without_edges(self):
        net = triangle().without_edges([(0, 1)])
        assert not net.has_edge(0, 1)
        assert net.num_edges == 2

    def test_derivation_does_not_mutate_original(self):
        net = triangle()
        net.without_edges([(0, 1)])
        assert net.has_edge(0, 1)
