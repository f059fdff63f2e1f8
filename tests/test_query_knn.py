"""Correctness tests for the kNN algorithm and all its variants."""

import numpy as np
import pytest

from repro.datasets import random_edge_objects, random_vertex_objects
from repro.objects import EdgePosition, ObjectIndex
from repro.query import SILC_ALGORITHMS, inn, knn, knn_i, knn_m
from repro.network import road_like_network
from repro.query.bestfirst import best_first_knn
from repro.silc import SILCIndex

ALGORITHMS = list(SILC_ALGORITHMS.items())


def truth_distances(dist_matrix, objects, q):
    return sorted(
        (float(dist_matrix[q, o.position.vertex]), o.oid) for o in objects
    )


class TestAgainstBruteForce:
    @pytest.mark.parametrize("name,algo", ALGORITHMS)
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_matches_brute_force(
        self, name, algo, k, small_net, small_index, small_objects, small_dist
    ):
        oi = ObjectIndex(small_net, small_objects, small_index.embedding)
        truth = truth_distances(small_dist, small_objects, 17)[:k]
        result = algo(small_index, oi, 17, k, exact=True)
        assert len(result) == k
        got = sorted(n.distance for n in result.neighbors)
        np.testing.assert_allclose(got, [d for d, _ in truth], rtol=1e-9)

    @pytest.mark.parametrize("name,algo", ALGORITHMS)
    def test_many_random_queries(
        self, name, algo, small_net, small_index, small_objects, small_dist, rng
    ):
        oi = ObjectIndex(small_net, small_objects, small_index.embedding)
        for _ in range(15):
            q = int(rng.integers(0, small_net.num_vertices))
            k = int(rng.choice([1, 2, 5, 8]))
            truth = truth_distances(small_dist, small_objects, q)[:k]
            result = algo(small_index, oi, q, k, exact=True)
            got = sorted(n.distance for n in result.neighbors)
            np.testing.assert_allclose(got, [d for d, _ in truth], rtol=1e-6)

    @pytest.mark.parametrize("name,algo", ALGORITHMS)
    def test_k_larger_than_object_set(
        self, name, algo, small_net, small_index, small_objects, small_dist
    ):
        oi = ObjectIndex(small_net, small_objects, small_index.embedding)
        result = algo(small_index, oi, 0, len(small_objects) + 10, exact=True)
        assert len(result) == len(small_objects)

    def test_k_validation(self, small_index, small_object_index):
        with pytest.raises(ValueError):
            knn(small_index, small_object_index, 0, 0)

    def test_unknown_variant_rejected(self, small_index, small_object_index):
        with pytest.raises(ValueError):
            best_first_knn(small_index, small_object_index, 0, 3, variant="bogus")


class TestOrderingContracts:
    def test_knn_sorted_output(
        self, small_net, small_index, small_objects, small_dist
    ):
        oi = ObjectIndex(small_net, small_objects, small_index.embedding)
        result = knn(small_index, oi, 5, 8, exact=True)
        assert result.ordered
        dists = [n.distance for n in result.neighbors]
        assert dists == sorted(dists)

    def test_inn_reports_in_increasing_order(
        self, small_net, small_index, small_objects
    ):
        oi = ObjectIndex(small_net, small_objects, small_index.embedding)
        result = inn(small_index, oi, 5, 8)
        los = [n.interval.lo for n in result.neighbors]
        his = [n.interval.hi for n in result.neighbors]
        # confirmed order: each neighbor's upper bound below the next
        # neighbor's lower bound (up to refinement overlap at ties)
        for i in range(len(result.neighbors) - 1):
            assert his[i] <= los[i + 1] + 1e-9

    def test_knn_m_flags_unsorted(self, small_net, small_index, small_objects):
        oi = ObjectIndex(small_net, small_objects, small_index.embedding)
        result = knn_m(small_index, oi, 5, 8)
        assert not result.ordered

    def test_intervals_contain_exact_distance_without_exact_flag(
        self, small_net, small_index, small_objects, small_dist
    ):
        oi = ObjectIndex(small_net, small_objects, small_index.embedding)
        result = knn(small_index, oi, 9, 5)  # exact=False
        truth = dict(
            (o.oid, float(small_dist[9, o.position.vertex]))
            for o in small_objects
        )
        for n in result.neighbors:
            assert n.interval.lo - 1e-9 <= truth[n.oid] <= n.interval.hi + 1e-9


class TestEdgeObjectQueries:
    def test_knn_with_edge_objects(self, small_net, small_index, small_dist):
        objs = random_edge_objects(small_net, count=25, seed=13)
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
                out.append((float(d), o.oid))
            return sorted(out)

        for q in (0, 40, 99):
            truth = edge_truth(q)[:5]
            result = knn(small_index, oi, q, 5, exact=True)
            got = sorted(n.distance for n in result.neighbors)
            np.testing.assert_allclose(got, [d for d, _ in truth], rtol=1e-9)

    def test_query_on_edge(self, small_net, small_index, small_objects, small_dist):
        a, (b, w) = 0, small_net.neighbors(0)[0]
        qpos = EdgePosition(a, b, 0.3)
        oi = ObjectIndex(small_net, small_objects, small_index.embedding)
        w_rev = small_net.edge_weight(b, a) if small_net.has_edge(b, a) else None

        def q_truth():
            out = []
            for o in small_objects:
                t = o.position.vertex
                d = 0.7 * w + small_dist[b, t]
                if w_rev is not None:
                    d = min(d, 0.3 * w_rev + small_dist[a, t])
                out.append((float(d), o.oid))
            return sorted(out)

        truth = q_truth()[:4]
        result = knn(small_index, oi, qpos, 4, exact=True)
        got = sorted(n.distance for n in result.neighbors)
        np.testing.assert_allclose(got, [d for d, _ in truth], rtol=1e-9)


class TestStatsContracts:
    def test_refinements_counted(self, small_index, small_object_index):
        result = knn(small_index, small_object_index, 0, 5)
        assert result.stats.refinements > 0
        assert result.stats.max_queue > 0
        assert result.stats.objects_seen >= 5

    def test_knn_tracks_l_ops(self, small_index, small_object_index):
        result = knn(small_index, small_object_index, 0, 5)
        assert result.stats.l_ops > 0

    def test_inn_has_no_l_ops(self, small_index, small_object_index):
        result = inn(small_index, small_object_index, 0, 5)
        assert result.stats.l_ops == 0

    def test_knn_i_records_d0k(
        self, small_net, small_index, small_objects, small_dist
    ):
        oi = ObjectIndex(small_net, small_objects, small_index.embedding)
        result = knn_i(small_index, oi, 0, 5, exact=True)
        truth_k = truth_distances(small_dist, small_objects, 0)[4][0]
        assert result.stats.d0k is not None
        assert result.stats.d0k >= truth_k - 1e-9  # estimate upper-bounds Dk

    def test_knn_m_kmindist_lower_bounds_dk(
        self, small_net, small_index, small_objects, small_dist
    ):
        oi = ObjectIndex(small_net, small_objects, small_index.embedding)
        result = knn_m(small_index, oi, 0, 5, exact=True)
        truth_k = truth_distances(small_dist, small_objects, 0)[4][0]
        assert result.stats.kmindist_final is not None
        assert result.stats.kmindist_final <= truth_k + 1e-9

    def test_exact_flag_records_post_refinements(
        self, small_index, small_object_index
    ):
        result = knn(small_index, small_object_index, 3, 5, exact=True)
        assert "post_refinements" in result.stats.extras

    def test_elapsed_positive(self, small_index, small_object_index):
        result = knn(small_index, small_object_index, 0, 3)
        assert result.stats.elapsed > 0


class TestVariantRelationships:
    def test_knn_m_never_more_refinements_than_inn(
        self, small_net, small_index, small_dist, rng
    ):
        objects = random_vertex_objects(small_net, count=40, seed=20)
        oi = ObjectIndex(small_net, objects, small_index.embedding)
        worse = 0
        for _ in range(10):
            q = int(rng.integers(0, small_net.num_vertices))
            r_inn = inn(small_index, oi, q, 8)
            r_m = knn_m(small_index, oi, q, 8)
            if r_m.stats.refinements > r_inn.stats.refinements:
                worse += 1
        assert worse <= 2  # overwhelmingly fewer or equal

    def test_queue_pruning_reduces_pushes(
        self, small_net, small_index, rng
    ):
        objects = random_vertex_objects(small_net, count=60, seed=21)
        oi = ObjectIndex(small_net, objects, small_index.embedding)
        total_knn = total_inn = 0
        for _ in range(10):
            q = int(rng.integers(0, small_net.num_vertices))
            total_knn += knn(small_index, oi, q, 3).stats.queue_pushes
            total_inn += inn(small_index, oi, q, 3).stats.queue_pushes
        assert total_knn <= total_inn


class TestKthEntryTie:
    def test_knn_keeps_its_own_kth_entry_when_it_becomes_exact(self):
        """When the object that is currently k-th in ``L`` becomes
        exact, ``Dk`` equals its distance; a strict re-enqueue test
        dropped it and confirmed a farther object (61 @ 4.7798 here)."""
        net = road_like_network(1000, seed=204)
        index = SILCIndex.build(net)
        objects = random_vertex_objects(net, count=100, seed=204)
        object_index = ObjectIndex(net, objects, index.embedding)
        for exact in (True, False):
            got = best_first_knn(index, object_index, 732, 5, variant="knn", exact=exact)
            want = best_first_knn(index, object_index, 732, 5, variant="inn", exact=exact)
            assert got.ids() == want.ids()
            assert got.ids()[-1] == 14
        assert got.stats.extras["fallback_fill"] == 1
        exact_knn = best_first_knn(index, object_index, 732, 5, variant="knn", exact=True)
        assert exact_knn.neighbors[-1].distance == pytest.approx(4.1232, abs=5e-5)

