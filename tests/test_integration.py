"""Integration tests: end-to-end scenarios across modules."""

import numpy as np
import pytest

from repro import ObjectIndex, SILCIndex, knn, road_like_network
from repro.query import ine_knn
from repro.datasets import random_vertex_objects
from repro.network import distance_matrix
from repro.storage import NetworkStorageModel
from reference import knn_workload


class TestDecoupling:
    """The paper's core architectural claim: index once, vary S and q."""

    def test_one_index_many_object_sets(self, small_net, small_index, small_dist):
        for seed in range(3):
            objs = random_vertex_objects(small_net, count=15, seed=seed)
            oi = ObjectIndex(small_net, objs, small_index.embedding)
            result = knn(small_index, oi, 0, 5, exact=True)
            truth = sorted(
                float(small_dist[0, o.position.vertex]) for o in objs
            )[:5]
            np.testing.assert_allclose(
                sorted(n.distance for n in result.neighbors), truth, rtol=1e-9
            )

    def test_one_index_many_queries(self, small_index, small_object_index):
        results = [
            knn(small_index, small_object_index, q, 3, exact=True)
            for q in (0, 25, 50, 75, 100)
        ]
        assert all(len(r) == 3 for r in results)


class TestNetworkUpdates:
    """Road closure: derive a new network, rebuild, answers change."""

    def test_closure_reroutes(self):
        net = road_like_network(100, seed=30)
        idx = SILCIndex.build(net)
        # find a used edge on some shortest path
        path = idx.path(0, 60)
        a, b = path[1], path[2]
        closed = net.without_edges([(a, b), (b, a)])
        if closed.num_strongly_connected_components() != 1:
            pytest.skip("closure disconnected this network")
        idx2 = SILCIndex.build(closed)
        d_old = idx.distance(0, 60)
        d_new = idx2.distance(0, 60)
        assert d_new >= d_old - 1e-9
        new_path = idx2.path(0, 60)
        assert (a, b) not in set(zip(new_path, new_path[1:]))
        # new distance still matches ground truth on the closed network
        D = distance_matrix(closed)
        assert d_new == pytest.approx(D[0, 60], rel=1e-9)


class TestPersistenceWorkflow:
    def test_save_load_then_query(self, tmp_path, small_net, small_index, small_objects, small_dist):
        path = tmp_path / "silc"
        small_index.save(path)
        loaded = SILCIndex.load(path, small_net)
        oi = ObjectIndex(small_net, small_objects, loaded.embedding)
        result = knn(loaded, oi, 10, 4, exact=True)
        truth = sorted(
            float(small_dist[10, o.position.vertex]) for o in small_objects
        )[:4]
        np.testing.assert_allclose(
            sorted(n.distance for n in result.neighbors), truth, rtol=1e-9
        )


class TestWorkloadAgreement:
    """All algorithms agree on a full workload (the paper's setup)."""

    def test_silc_equals_ine_on_workload(self, small_net, small_index):
        w = knn_workload(small_net, density=0.15, k=6, num_queries=10, seed=17)
        oi = ObjectIndex(small_net, w.objects, small_index.embedding)
        for q in w.queries:
            silc = knn(small_index, oi, q, w.k, exact=True)
            ine = ine_knn(oi, q, w.k)
            np.testing.assert_allclose(
                sorted(n.distance for n in silc.neighbors),
                sorted(n.distance for n in ine.neighbors),
                rtol=1e-9,
            )


class TestStorageIntegration:
    def test_io_accounting_full_stack(self, small_net, small_index, small_objects):
        sim = small_index.make_storage(cache_fraction=0.05)
        small_index.attach_storage(sim)
        try:
            oi = ObjectIndex(small_net, small_objects, small_index.embedding)
            result = knn(small_index, oi, 0, 5)
            assert result.stats.io_accesses > 0
            assert result.stats.io_misses <= result.stats.io_accesses
            assert result.stats.io_time == pytest.approx(
                result.stats.io_misses * sim.miss_latency
            )
        finally:
            small_index.detach_storage()

    def test_warm_cache_reduces_misses(self, small_net, small_index, small_objects):
        sim = small_index.make_storage(cache_fraction=0.5)
        small_index.attach_storage(sim)
        try:
            oi = ObjectIndex(small_net, small_objects, small_index.embedding)
            first = knn(small_index, oi, 0, 5).stats.io_misses
            second = knn(small_index, oi, 0, 5).stats.io_misses
            assert second <= first
        finally:
            small_index.detach_storage()

    def test_ine_uses_network_pages(self, small_net, small_object_index):
        storage = NetworkStorageModel(small_net, cache_fraction=0.05)
        r = ine_knn(small_object_index, 0, 5, storage=storage)
        assert r.stats.io_accesses == r.stats.settled


class TestDijkstraAvoidance:
    """The motivating claim: SILC touches only the path, Dijkstra the world."""

    def test_path_retrieval_touches_path_length_blocks(self, small_net, small_index):
        from repro.network import shortest_path

        u, v = 0, 140
        path_len = len(small_index.path(u, v))
        _, _, stats = shortest_path(small_net, u, v)
        # Dijkstra settles a large fraction of the network...
        assert stats.settled > path_len * 2
        # ...while SILC performs exactly one probe per link.
        sim = small_index.make_storage(cache_fraction=1.0)
        small_index.attach_storage(sim)
        try:
            before = sim.stats.accesses
            small_index.path(u, v)
            probes = sim.stats.accesses - before
            assert probes == path_len - 1
        finally:
            small_index.detach_storage()
