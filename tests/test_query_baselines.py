"""Correctness tests for the INE and IER baselines."""

import tracemalloc

import numpy as np
import pytest

from repro.datasets import random_edge_objects, random_vertex_objects
from repro.geometry.grid import GridEmbedding
from repro.network import grid_network
from repro.objects import EdgePosition, ObjectIndex
from repro.query import ier_knn, ine_knn
from repro.storage import NetworkStorageModel


def truth(dist_matrix, objects, q):
    return sorted(
        (float(dist_matrix[q, o.position.vertex]), o.oid) for o in objects
    )


class TestINE:
    @pytest.mark.parametrize("k", [1, 4, 10])
    def test_matches_brute_force(
        self, k, small_net, small_index, small_objects, small_dist
    ):
        oi = ObjectIndex(small_net, small_objects, small_index.embedding)
        expected = truth(small_dist, small_objects, 23)[:k]
        result = ine_knn(oi, 23, k)
        got = [(n.distance, n.oid) for n in result.neighbors]
        np.testing.assert_allclose(
            [d for d, _ in got], [d for d, _ in expected], rtol=1e-9
        )

    def test_sorted_output(self, small_object_index):
        result = ine_knn(small_object_index, 0, 8)
        dists = [n.distance for n in result.neighbors]
        assert dists == sorted(dists)

    def test_settles_vertices(self, small_object_index):
        result = ine_knn(small_object_index, 0, 5)
        assert result.stats.settled > 0
        assert result.stats.index_probes == result.stats.settled

    def test_edge_objects(self, small_net, small_index, small_dist):
        objs = random_edge_objects(small_net, count=20, seed=31)
        oi = ObjectIndex(small_net, objs, small_index.embedding)

        def edge_truth(q):
            out = []
            for o in objs:
                pos = o.position
                d = small_dist[q, pos.a] + pos.fraction * small_net.edge_weight(
                    pos.a, pos.b
                )
                if small_net.has_edge(pos.b, pos.a):
                    d = min(
                        d,
                        small_dist[q, pos.b]
                        + (1 - pos.fraction) * small_net.edge_weight(pos.b, pos.a),
                    )
                out.append(float(d))
            return sorted(out)

        result = ine_knn(oi, 7, 6)
        np.testing.assert_allclose(
            [n.distance for n in result.neighbors], edge_truth(7)[:6], rtol=1e-9
        )

    def test_query_on_edge(self, small_net, small_index, small_objects, small_dist):
        a, (b, w) = 0, small_net.neighbors(0)[0]
        result = ine_knn(
            ObjectIndex(small_net, small_objects, small_index.embedding),
            EdgePosition(a, b, 0.5),
            3,
        )
        assert len(result) == 3
        # verify against anchors
        w_rev = small_net.edge_weight(b, a) if small_net.has_edge(b, a) else None
        expected = []
        for o in small_objects:
            t = o.position.vertex
            d = 0.5 * w + small_dist[b, t]
            if w_rev is not None:
                d = min(d, 0.5 * w_rev + small_dist[a, t])
            expected.append(float(d))
        expected.sort()
        np.testing.assert_allclose(
            [n.distance for n in result.neighbors], expected[:3], rtol=1e-9
        )

    def test_k_validation(self, small_object_index):
        with pytest.raises(ValueError):
            ine_knn(small_object_index, 0, 0)

    def test_storage_accounting(self, small_net, small_object_index):
        storage = NetworkStorageModel(small_net)
        result = ine_knn(small_object_index, 0, 5, storage=storage)
        assert result.stats.io_accesses == result.stats.settled
        assert result.stats.io_time >= 0

    def test_memory_is_sized_by_the_ball_not_the_network(self):
        """One query on a 20 000-vertex lattice allocates a few KiB: three
        per-vertex lists alone would be about 480 KB."""
        net = grid_network(100, 200)
        objects = random_vertex_objects(net, count=2000, seed=3)
        oi = ObjectIndex(net, objects, GridEmbedding.for_points(net.xs, net.ys, order=10))
        ine_knn(oi, 10_100, 4)  # first-call costs (imports, caches) outside the count
        tracemalloc.start()
        try:
            result = ine_knn(oi, 10_100, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result) == 4 and result.stats.settled < 1000
        assert peak < 64 * 1024, peak


class TestIER:
    @pytest.mark.parametrize("engine", ["dijkstra", "astar"])
    @pytest.mark.parametrize("k", [1, 5])
    def test_matches_brute_force(
        self, engine, k, small_net, small_index, small_objects, small_dist
    ):
        oi = ObjectIndex(small_net, small_objects, small_index.embedding)
        expected = truth(small_dist, small_objects, 31)[:k]
        result = ier_knn(oi, 31, k, engine=engine)
        np.testing.assert_allclose(
            [n.distance for n in result.neighbors],
            [d for d, _ in expected],
            rtol=1e-9,
        )

    def test_counts_nd_computations(self, small_object_index):
        result = ier_knn(small_object_index, 0, 3)
        assert result.stats.nd_computations >= 3
        assert result.stats.settled > 0

    def test_engine_validation(self, small_object_index):
        with pytest.raises(ValueError):
            ier_knn(small_object_index, 0, 3, engine="bfs")

    def test_k_validation(self, small_object_index):
        with pytest.raises(ValueError):
            ier_knn(small_object_index, 0, 0)

    def test_rejects_non_metric_network(self, small_index):
        from repro.network import SpatialNetwork

        # weight < Euclidean length breaks the Euclidean filter
        net = SpatialNetwork(
            [0.0, 10.0, 5.0],
            [0.0, 0.0, 1.0],
            [
                (0, 1, 0.5),
                (1, 0, 0.5),
                (0, 2, 6.0),
                (2, 0, 6.0),
                (1, 2, 6.0),
                (2, 1, 6.0),
            ],
        )
        from repro.datasets import random_vertex_objects
        from repro.silc import SILCIndex

        idx = SILCIndex.build(net)
        objs = random_vertex_objects(net, count=2, seed=0)
        oi = ObjectIndex(net, objs, idx.embedding)
        with pytest.raises(ValueError):
            ier_knn(oi, 0, 1)

    def test_edge_objects(self, small_net, small_index, small_dist):
        objs = random_edge_objects(small_net, count=15, seed=32)
        oi = ObjectIndex(small_net, objs, small_index.embedding)
        ine_result = ine_knn(oi, 11, 5)
        ier_result = ier_knn(oi, 11, 5)
        np.testing.assert_allclose(
            [n.distance for n in ier_result.neighbors],
            [n.distance for n in ine_result.neighbors],
            rtol=1e-9,
        )

    def test_storage_accounting(self, small_net, small_object_index):
        storage = NetworkStorageModel(small_net)
        result = ier_knn(small_object_index, 0, 3, storage=storage)
        assert result.stats.io_accesses > 0
