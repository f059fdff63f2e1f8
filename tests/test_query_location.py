"""Unit tests for query locations and anchors."""

import pytest

from repro.geometry import Point
from repro.objects.model import EdgePosition, VertexPosition, target_anchors
from repro.query.location import resolve_location, same_edge_direct, source_anchors


def first_edge(net, u=0):
    v, w = net.neighbors(u)[0]
    return u, v, w


def one_way_triangle():
    from repro.network import SpatialNetwork

    return SpatialNetwork(
        [0.0, 1.0, 0.5],
        [0.0, 0.0, 1.0],
        [(0, 1, 1.0), (1, 2, 1.2), (2, 0, 1.2)],
    )


class TestResolveLocation:
    def test_int_becomes_vertex_position(self, small_net):
        assert resolve_location(small_net, 5) == VertexPosition(5)

    def test_int_bounds_checked(self, small_net):
        from repro.network.errors import VertexNotFound

        with pytest.raises(VertexNotFound):
            resolve_location(small_net, 10_000)

    def test_positions_pass_through(self, small_net):
        pos = EdgePosition(*first_edge(small_net)[:2], 0.5)
        assert resolve_location(small_net, pos) is pos

    def test_point_snaps_to_nearest_vertex(self, small_net):
        p = small_net.vertex_point(9)
        near = Point(p.x + 1e-4, p.y - 1e-4)
        assert resolve_location(small_net, near) == VertexPosition(9)

    def test_unsupported_type_rejected(self, small_net):
        with pytest.raises(TypeError):
            resolve_location(small_net, "downtown")


class TestAnchors:
    def test_vertex_anchors_trivial(self, small_net):
        assert source_anchors(small_net, VertexPosition(4)) == [(4, 0.0)]
        assert target_anchors(small_net, VertexPosition(4)) == [(4, 0.0)]

    def test_edge_source_anchors(self, small_net):
        a, b, w = first_edge(small_net)
        anchors = dict(source_anchors(small_net, EdgePosition(a, b, 0.25)))
        assert anchors[b] == pytest.approx(0.75 * w)
        if small_net.has_edge(b, a):
            assert anchors[a] == pytest.approx(
                0.25 * small_net.edge_weight(b, a)
            )

    def test_edge_target_anchors(self, small_net):
        a, b, w = first_edge(small_net)
        anchors = dict(target_anchors(small_net, EdgePosition(a, b, 0.25)))
        assert anchors[a] == pytest.approx(0.25 * w)
        if small_net.has_edge(b, a):
            assert anchors[b] == pytest.approx(
                0.75 * small_net.edge_weight(b, a)
            )

    def test_one_way_edge_has_single_anchor(self):
        net = one_way_triangle()
        pos = EdgePosition(0, 1, 0.5)
        assert source_anchors(net, pos) == [(1, pytest.approx(0.5))]
        assert target_anchors(net, pos) == [(0, pytest.approx(0.5))]


class TestSameEdgeDirect:
    def test_same_vertex(self, small_net):
        assert same_edge_direct(small_net, VertexPosition(3), VertexPosition(3)) == 0.0

    def test_distinct_vertices_none(self, small_net):
        assert same_edge_direct(small_net, VertexPosition(3), VertexPosition(4)) is None

    def test_downstream_object_on_same_edge(self, small_net):
        a, b, w = first_edge(small_net)
        d = same_edge_direct(
            small_net, EdgePosition(a, b, 0.2), EdgePosition(a, b, 0.7)
        )
        assert d == pytest.approx(0.5 * w)

    def test_no_upstream_segment_on_a_one_way_edge(self):
        net = one_way_triangle()
        assert (
            same_edge_direct(net, EdgePosition(0, 1, 0.7), EdgePosition(0, 1, 0.2))
            is None
        )

    def test_upstream_object_goes_back_along_the_reverse_edge(self, small_net):
        a, b, _ = first_edge(small_net)
        assert small_net.has_edge(b, a)
        w_rev = small_net.edge_weight(b, a)
        d = same_edge_direct(
            small_net, EdgePosition(a, b, 0.7), EdgePosition(a, b, 0.2)
        )
        assert d == pytest.approx(0.5 * w_rev)

    def test_opposite_orientation_downstream_along_the_source_edge(self, small_net):
        a, b, w = first_edge(small_net)
        assert small_net.has_edge(b, a)
        # target at 0.6 along (b,a) == 0.4 along (a,b): 0.2 ahead of a
        # source at 0.2 along (a,b), travelling the source's own edge.
        d = same_edge_direct(
            small_net, EdgePosition(a, b, 0.2), EdgePosition(b, a, 0.6)
        )
        assert d == pytest.approx(0.2 * w)

    def test_opposite_orientation_segment(self, small_net):
        a, b, _ = first_edge(small_net)
        if not small_net.has_edge(b, a):
            pytest.skip("needs bidirectional edge")
        w_rev = small_net.edge_weight(b, a)
        # source at fraction 0.7 along (a,b) == 0.3 along (b,a);
        # target at 0.6 along (b,a) is downstream of it.
        d = same_edge_direct(
            small_net, EdgePosition(a, b, 0.7), EdgePosition(b, a, 0.6)
        )
        assert d == pytest.approx(0.3 * w_rev)
