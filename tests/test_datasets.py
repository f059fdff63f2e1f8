"""Unit tests for dataset/workload generation."""

import pytest

from repro.datasets import random_vertex_objects
from repro.objects.model import EdgePosition, VertexPosition
from reference import knn_workload, random_edge_objects


class TestRandomVertexObjects:
    def test_density_count(self, small_net):
        objs = random_vertex_objects(small_net, density=0.1, seed=0)
        assert len(objs) == round(0.1 * small_net.num_vertices)

    def test_absolute_count(self, small_net):
        assert len(random_vertex_objects(small_net, count=7, seed=0)) == 7

    def test_exactly_one_spec(self, small_net):
        with pytest.raises(ValueError):
            random_vertex_objects(small_net)
        with pytest.raises(ValueError):
            random_vertex_objects(small_net, density=0.1, count=5)

    def test_distinct_vertices(self, small_net):
        objs = random_vertex_objects(small_net, count=50, seed=1)
        vertices = [o.position.vertex for o in objs]
        assert len(set(vertices)) == 50

    def test_deterministic(self, small_net):
        a = random_vertex_objects(small_net, count=10, seed=5)
        b = random_vertex_objects(small_net, count=10, seed=5)
        assert [o.position.vertex for o in a] == [o.position.vertex for o in b]

    def test_seed_changes_sample(self, small_net):
        a = random_vertex_objects(small_net, count=10, seed=5)
        b = random_vertex_objects(small_net, count=10, seed=6)
        assert [o.position.vertex for o in a] != [o.position.vertex for o in b]

    def test_bounds(self, small_net):
        with pytest.raises(ValueError):
            random_vertex_objects(small_net, density=0.0)
        with pytest.raises(ValueError):
            random_vertex_objects(small_net, count=0)
        with pytest.raises(ValueError):
            random_vertex_objects(small_net, count=10_000)

    def test_positions_are_vertices(self, small_net):
        objs = random_vertex_objects(small_net, count=5, seed=2)
        assert all(isinstance(o.position, VertexPosition) for o in objs)


class TestRandomEdgeObjects:
    def test_count_and_type(self, small_net):
        objs = random_edge_objects(small_net, count=9, seed=0)
        assert len(objs) == 9
        assert all(isinstance(o.position, EdgePosition) for o in objs)

    def test_fractions_interior(self, small_net):
        objs = random_edge_objects(small_net, count=20, seed=1)
        assert all(0.0 < o.position.fraction < 1.0 for o in objs)

    def test_count_validation(self, small_net):
        with pytest.raises(ValueError):
            random_edge_objects(small_net, count=0)


class TestWorkload:
    def test_workload_shape(self, small_net):
        w = knn_workload(small_net, density=0.1, k=5, num_queries=12, seed=3)
        assert len(w.queries) == 12
        assert w.k == 5
        assert w.density == pytest.approx(0.1, abs=0.01)

    def test_workload_deterministic(self, small_net):
        a = knn_workload(small_net, density=0.1, k=5, seed=3)
        b = knn_workload(small_net, density=0.1, k=5, seed=3)
        assert a.queries == b.queries
        assert [o.position.vertex for o in a.objects] == [
            o.position.vertex for o in b.objects
        ]

    def test_queries_are_valid_vertices(self, small_net):
        w = knn_workload(small_net, density=0.05, k=3, seed=1)
        assert all(0 <= q < small_net.num_vertices for q in w.queries)

    def test_num_queries_validation(self, small_net):
        with pytest.raises(ValueError):
            knn_workload(small_net, density=0.1, k=5, num_queries=0)
