"""Unit tests for the object index (PMR wrapper)."""

import numpy as np

from repro.datasets import random_edge_objects, random_vertex_objects
from repro.objects import ObjectIndex


class TestVertexLookups:
    def test_objects_at_vertex(self, small_net, small_index, small_objects):
        oi = ObjectIndex(small_net, small_objects, small_index.embedding)
        placed = {}
        for o in small_objects:
            placed.setdefault(o.position.vertex, []).append(o.oid)
        for v, oids in placed.items():
            assert sorted(oi.vertex_objects.get(v, ())) == sorted(oids)

    def test_objects_at_empty_vertex(self, small_net, small_object_index):
        with_objects = set(small_object_index.vertex_objects)
        empty = next(
            v for v in range(small_net.num_vertices) if v not in with_objects
        )
        assert list(small_object_index.vertex_objects.get(empty, ())) == []

    def test_get(self, small_object_index, small_objects):
        for o in small_objects:
            assert small_object_index.get(o.oid) is small_objects[o.oid]


class TestEdgeFlags:
    def test_vertex_only_tree_has_no_edge_flags(self, small_object_index):
        for node in small_object_index.tree.iter_nodes():
            assert not small_object_index.has_edge_objects(node)

    def test_edge_objects_flagged_up_to_root(self, small_net, small_index):
        objs = random_edge_objects(small_net, count=5, seed=1)
        oi = ObjectIndex(small_net, objs, small_index.embedding)
        assert oi.has_edge_objects(oi.root)


class TestEuclideanScan:
    def test_yields_in_increasing_distance(self, small_net, small_index):
        objs = random_vertex_objects(small_net, count=30, seed=2)
        oi = ObjectIndex(small_net, objs, small_index.embedding)
        origin = small_net.vertex_point(0)
        dists = [d for _, d in oi.iter_euclidean(origin)]
        assert dists == sorted(dists)
        assert len(dists) == 30

    def test_distances_are_correct(self, small_net, small_index):
        objs = random_vertex_objects(small_net, count=10, seed=3)
        oi = ObjectIndex(small_net, objs, small_index.embedding)
        origin = small_net.vertex_point(5)
        for oid, d in oi.iter_euclidean(origin):
            assert d == origin.distance_to(objs[oid].point)

    def test_yields_every_object_once(self, small_net, small_index):
        objs = random_vertex_objects(small_net, count=25, seed=4)
        oi = ObjectIndex(small_net, objs, small_index.embedding)
        ids = [oid for oid, _ in oi.iter_euclidean(small_net.vertex_point(7))]
        assert sorted(ids) == list(range(25))
