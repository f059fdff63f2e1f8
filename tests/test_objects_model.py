"""Unit tests for the object model."""

import pytest

from repro.geometry import Point
from repro.objects.model import (
    EdgePosition,
    ObjectSet,
    SpatialObject,
    VertexPosition,
    position_point,
)
from reference import objects_on_edges


class TestPositions:
    def test_vertex_position_point(self, small_net):
        p = position_point(small_net, VertexPosition(5))
        assert p == small_net.vertex_point(5)

    def test_edge_position_point_interpolates(self, small_net):
        u, (v, w) = 0, small_net.neighbors(0)[0]
        pos = EdgePosition(u, v, 0.25)
        p = position_point(small_net, pos)
        pa, pb = small_net.vertex_point(u), small_net.vertex_point(v)
        assert p == pa.lerp(pb, 0.25)

    def test_edge_fraction_validated(self):
        with pytest.raises(ValueError):
            EdgePosition(0, 1, 1.5)
        with pytest.raises(ValueError):
            EdgePosition(0, 1, -0.1)

    def test_edge_fraction_bounds_allowed(self):
        EdgePosition(0, 1, 0.0)
        EdgePosition(0, 1, 1.0)


class TestObjectSet:
    def test_at_vertices(self, small_net):
        objs = ObjectSet.at_vertices(small_net, [3, 7, 3])
        assert len(objs) == 3
        assert objs[0].position.vertex == 3
        assert objs[2].position.vertex == 3  # duplicates allowed

    def test_on_edges(self, small_net):
        u, (v, _) = 0, small_net.neighbors(0)[0]
        objs = objects_on_edges(small_net, [(u, v, 0.5)])
        assert len(objs) == 1
        assert isinstance(objs[0].position, EdgePosition)

    def test_on_edges_validates_edge_exists(self, small_net):
        # find a non-edge
        nbrs = {v for v, _ in small_net.neighbors(0)}
        non = next(v for v in range(1, small_net.num_vertices) if v not in nbrs)
        from repro.network.errors import EdgeNotFound

        with pytest.raises(EdgeNotFound):
            objects_on_edges(small_net, [(0, non, 0.5)])

    def test_duplicate_ids_rejected(self, small_net):
        p = small_net.vertex_point(0)
        objs = [
            SpatialObject(1, VertexPosition(0), p),
            SpatialObject(1, VertexPosition(1), p),
        ]
        with pytest.raises(ValueError):
            ObjectSet(objs)

    def test_lookup_and_iteration(self, small_net):
        objs = ObjectSet.at_vertices(small_net, [4, 9])
        assert objs[1].position.vertex == 9
        assert 0 in objs and 1 in objs and 2 not in objs
        assert objs.ids == [0, 1]
        assert [o.oid for o in objs] == [0, 1]
