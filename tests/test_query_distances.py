"""Unit tests for query-to-object distance states and block bounds."""

import math

import numpy as np
import pytest

from repro.datasets import random_vertex_objects
from repro.geometry.morton import block_cells
from repro.objects.model import EdgePosition, VertexPosition
from repro.objects import ObjectIndex
from repro.query.distances import QueryHandle
from repro.query.location import resolve_location
from reference import iter_nodes, random_edge_objects


def truth_to_edge_object(net, D, q, pos):
    """Definitional network distance from vertex q to an edge object."""
    best = D[q, pos.a] + pos.fraction * net.edge_weight(pos.a, pos.b)
    if net.has_edge(pos.b, pos.a):
        best = min(
            best,
            D[q, pos.b] + (1 - pos.fraction) * net.edge_weight(pos.b, pos.a),
        )
    return best


@pytest.fixture(scope="module")
def handle_setup(small_net, small_index, small_objects):
    oi = ObjectIndex(small_net, small_objects, small_index.embedding)
    return small_net, small_index, oi


class TestVertexObjectDistances:
    def test_interval_contains_truth(self, handle_setup, small_dist):
        net, idx, oi = handle_setup
        handle = QueryHandle(idx, oi, resolve_location(net, 0))
        for obj in oi.objects:
            state = handle.object_state(obj.oid)
            truth = small_dist[0, obj.position.vertex]
            assert state.interval.lo - 1e-9 <= truth <= state.interval.hi + 1e-9

    def test_refine_fully_is_exact(self, handle_setup, small_dist):
        net, idx, oi = handle_setup
        handle = QueryHandle(idx, oi, resolve_location(net, 3))
        for obj in list(oi.objects)[:8]:
            state = handle.object_state(obj.oid)
            d = state.refine_fully()
            assert d == pytest.approx(
                small_dist[3, obj.position.vertex], rel=1e-9, abs=1e-12
            )

    def test_refinement_monotone(self, handle_setup):
        net, idx, oi = handle_setup
        handle = QueryHandle(idx, oi, resolve_location(net, 7))
        state = handle.object_state(0)
        prev = state.interval
        while state.refine():
            assert state.interval.lo >= prev.lo - 1e-12
            assert state.interval.hi <= prev.hi + 1e-12
            prev = state.interval


class TestEdgeObjectDistances:
    def test_edge_object_distance_exact(self, small_net, small_index, small_dist):
        objs = random_edge_objects(small_net, count=12, seed=8)
        oi = ObjectIndex(small_net, objs, small_index.embedding)
        handle = QueryHandle(small_index, oi, resolve_location(small_net, 0))
        for obj in objs:
            state = handle.object_state(obj.oid)
            truth = truth_to_edge_object(small_net, small_dist, 0, obj.position)
            assert state.interval.lo - 1e-9 <= truth <= state.interval.hi + 1e-9
            assert state.refine_fully() == pytest.approx(truth, rel=1e-9)

    def test_query_on_edge_to_vertex_objects(
        self, small_net, small_index, small_objects, small_dist
    ):
        a, (b, w) = 0, small_net.neighbors(0)[0]
        qpos = EdgePosition(a, b, 0.4)
        oi = ObjectIndex(small_net, small_objects, small_index.embedding)
        handle = QueryHandle(small_index, oi, qpos)
        w_rev = small_net.edge_weight(b, a) if small_net.has_edge(b, a) else None
        for obj in small_objects:
            t = obj.position.vertex
            truth = 0.6 * w + small_dist[b, t]
            if w_rev is not None:
                truth = min(truth, 0.4 * w_rev + small_dist[a, t])
            state = handle.object_state(obj.oid)
            assert state.refine_fully() == pytest.approx(truth, rel=1e-9)


class TestBlockBounds:
    def test_bounds_sound_for_vertex_objects(self, handle_setup, small_dist):
        net, idx, oi = handle_setup
        handle = QueryHandle(idx, oi, resolve_location(net, 11))
        for node in iter_nodes(oi.tree):
            if node.is_leaf and not node.entries:
                continue
            bound = handle.block_bound(node)
            for obj in oi.objects:
                cell = int(idx.vertex_codes[obj.position.vertex])
                if node.code <= cell < node.code + block_cells(node.level):
                    truth = small_dist[11, obj.position.vertex]
                    assert bound <= truth + 1e-9

    def test_bounds_sound_for_edge_objects(self, small_net, small_index, small_dist):
        objs = random_edge_objects(small_net, count=15, seed=9)
        oi = ObjectIndex(small_net, objs, small_index.embedding)
        handle = QueryHandle(small_index, oi, resolve_location(small_net, 2))
        for node in iter_nodes(oi.tree):
            bound = handle.block_bound(node)
            for oid, cell, _ in node.entries:
                truth = truth_to_edge_object(
                    small_net, small_dist, 2, objs[oid].position
                )
                assert bound <= truth + 1e-9

    def test_empty_vertexless_block_is_inf(self, handle_setup):
        net, idx, oi = handle_setup
        handle = QueryHandle(idx, oi, resolve_location(net, 0))
        from repro.quadtree.pmr import PMRNode

        # craft a node over the top-right corner cell, far from data
        top = idx.embedding.cells_per_side - 1
        from repro.geometry.morton import morton_encode

        code = morton_encode(top, top)
        node = PMRNode(code=code, level=0)
        if idx.tables[0].lookup(code) is None:
            assert math.isinf(handle.block_bound(node))
