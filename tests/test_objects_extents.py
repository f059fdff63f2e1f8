"""Tests for extent objects (the paper's face/extent input type, p.21)."""

import numpy as np
import pytest

from repro.geometry import Point
from repro.objects.model import (
    EdgePosition,
    ExtentPosition,
    ObjectSet,
    VertexPosition,
    position_parts,
    position_point,
)
from repro.objects import ObjectIndex
from repro.query import ier_knn, ine_knn, knn, browse
from repro.query.location import resolve_location
from repro.query.distances import QueryHandle
from reference import objects_with_extents


def make_extent_set(net, rng, count=8, parts_per=3):
    """Random extent objects made of vertex and edge parts."""
    extents = []
    for _ in range(count):
        parts = []
        for _ in range(parts_per):
            if rng.random() < 0.5:
                parts.append(VertexPosition(int(rng.integers(0, net.num_vertices))))
            else:
                u = int(rng.integers(0, net.num_vertices))
                v, _ = net.neighbors(u)[0]
                parts.append(EdgePosition(u, v, float(rng.uniform(0.1, 0.9))))
        extents.append(parts)
    return objects_with_extents(net, extents)


def part_distance(net, D, q, part):
    if isinstance(part, VertexPosition):
        return float(D[q, part.vertex])
    d = D[q, part.a] + part.fraction * net.edge_weight(part.a, part.b)
    if net.has_edge(part.b, part.a):
        d = min(
            d,
            D[q, part.b] + (1 - part.fraction) * net.edge_weight(part.b, part.a),
        )
    return float(d)


def extent_truth(net, D, q, objects):
    out = []
    for o in objects:
        d = min(
            part_distance(net, D, q, part) for part in position_parts(o.position)
        )
        out.append((d, o.oid))
    return sorted(out)


class TestModel:
    def test_empty_extent_rejected(self):
        with pytest.raises(ValueError):
            ExtentPosition(())

    def test_nested_extent_rejected(self):
        inner = ExtentPosition((VertexPosition(0),))
        with pytest.raises(TypeError):
            ExtentPosition((inner,))

    def test_position_parts(self):
        ext = ExtentPosition((VertexPosition(0), VertexPosition(1)))
        assert position_parts(ext) == ext.parts
        assert position_parts(VertexPosition(3)) == (VertexPosition(3),)

    def test_centroid_point(self, small_net):
        ext = ExtentPosition((VertexPosition(0), VertexPosition(1)))
        p = position_point(small_net, ext)
        a, b = small_net.vertex_point(0), small_net.vertex_point(1)
        assert p == Point((a.x + b.x) / 2.0, (a.y + b.y) / 2.0)

    def test_with_extents_validates_parts(self, small_net):
        from repro.network.errors import VertexNotFound

        with pytest.raises(VertexNotFound):
            objects_with_extents(small_net, [[VertexPosition(10_000)]])

    def test_extent_set_flags_edge_parts(self, small_net, small_index):
        """An extent's edge part flags its object-index block."""
        u, (v, _) = 0, small_net.neighbors(0)[0]
        objs = objects_with_extents(
            small_net, [[VertexPosition(3), EdgePosition(u, v, 0.5)]]
        )
        oi = ObjectIndex(small_net, objs, small_index.embedding)
        assert oi.node_info[oi.root.code, oi.root.level][1]

    def test_query_location_cannot_be_extent(self, small_net):
        from repro.query.location import source_anchors

        with pytest.raises(TypeError):
            source_anchors(small_net, ExtentPosition((VertexPosition(0),)))


class TestDistances:
    def test_extent_distance_is_min_over_parts(
        self, small_net, small_index, small_dist, rng
    ):
        objects = make_extent_set(small_net, rng)
        oi = ObjectIndex(small_net, objects, small_index.embedding)
        handle = QueryHandle(
            small_index, oi, resolve_location(small_net, 4)
        )
        for o in objects:
            truth = min(
                part_distance(small_net, small_dist, 4, part)
                for part in position_parts(o.position)
            )
            state = handle.object_state(o.oid)
            assert state.interval.lo - 1e-9 <= truth <= state.interval.hi + 1e-9
            assert state.refine_fully() == pytest.approx(truth, rel=1e-9)


class TestQueries:
    def test_knn_with_extents(self, small_net, small_index, small_dist, rng):
        objects = make_extent_set(small_net, rng)
        oi = ObjectIndex(small_net, objects, small_index.embedding)
        for q in (0, 55, 120):
            truth = extent_truth(small_net, small_dist, q, objects)[:4]
            result = knn(small_index, oi, q, 4, exact=True)
            got = sorted(n.distance for n in result.neighbors)
            np.testing.assert_allclose(got, [d for d, _ in truth], rtol=1e-9)

    def test_no_duplicate_reports(self, small_net, small_index, rng):
        objects = make_extent_set(small_net, rng)
        oi = ObjectIndex(small_net, objects, small_index.embedding)
        result = knn(small_index, oi, 10, len(objects), exact=True)
        assert len(result.ids()) == len(set(result.ids())) == len(objects)

    def test_browse_yields_each_extent_once(self, small_net, small_index, rng):
        objects = make_extent_set(small_net, rng)
        oi = ObjectIndex(small_net, objects, small_index.embedding)
        emitted = [n.oid for n in browse(small_index, oi, 33)]
        assert sorted(emitted) == sorted(objects.ids)

    def test_ine_matches_silc(self, small_net, small_index, rng):
        objects = make_extent_set(small_net, rng)
        oi = ObjectIndex(small_net, objects, small_index.embedding)
        silc = knn(small_index, oi, 77, 5, exact=True)
        ine = ine_knn(oi, 77, 5)
        np.testing.assert_allclose(
            sorted(n.distance for n in silc.neighbors),
            sorted(n.distance for n in ine.neighbors),
            rtol=1e-9,
        )

    def test_ier_matches_silc(self, small_net, small_index, rng):
        objects = make_extent_set(small_net, rng)
        oi = ObjectIndex(small_net, objects, small_index.embedding)
        silc = knn(small_index, oi, 99, 5, exact=True)
        ier = ier_knn(oi, 99, 5)
        np.testing.assert_allclose(
            sorted(n.distance for n in silc.neighbors),
            sorted(n.distance for n in ier.neighbors),
            rtol=1e-9,
        )
