"""Correctness tests for the extended query operators."""

import itertools
import math

import numpy as np
import pytest

from test_properties import _edge_position, edge_and_extent_objects, one_way

from repro.datasets import random_vertex_objects
from repro.network import road_like_network
from repro.objects import ObjectIndex
from repro.query import (
    aggregate_nn,
    approximate_knn,
    browse,
    distance_join,
    range_query,
)
from repro.query.bestfirst import best_first_knn
from repro.silc import SILCIndex


def truth(dist_matrix, objects, q):
    return sorted(
        (float(dist_matrix[q, o.position.vertex]), o.oid) for o in objects
    )


class TestBrowse:
    def test_yields_all_objects_in_order(
        self, small_net, small_index, small_objects, small_dist
    ):
        oi = ObjectIndex(small_net, small_objects, small_index.embedding)
        expected = truth(small_dist, small_objects, 12)
        emitted = list(browse(small_index, oi, 12))
        assert len(emitted) == len(small_objects)
        # emitted order matches true distance order
        emitted_truth = [
            float(small_dist[12, small_objects[n.oid].position.vertex])
            for n in emitted
        ]
        assert emitted_truth == sorted(emitted_truth)

    def test_intervals_bound_truth(self, small_net, small_index, small_objects, small_dist):
        oi = ObjectIndex(small_net, small_objects, small_index.embedding)
        for n in browse(small_index, oi, 30):
            d = float(small_dist[30, small_objects[n.oid].position.vertex])
            assert n.interval.lo - 1e-9 <= d <= n.interval.hi + 1e-9

    def test_lazy_consumption(self, small_net, small_index, small_objects, small_dist):
        """Taking one neighbor must not resolve the whole set."""
        oi = ObjectIndex(small_net, small_objects, small_index.embedding)
        first = next(browse(small_index, oi, 5))
        best = truth(small_dist, small_objects, 5)[0]
        assert first.oid == best[1] or first.interval.lo <= best[0] + 1e-9

    def test_successive_emissions_separated(
        self, small_net, small_index, small_objects
    ):
        oi = ObjectIndex(small_net, small_objects, small_index.embedding)
        emitted = list(itertools.islice(browse(small_index, oi, 7), 8))
        for a, b in zip(emitted, emitted[1:]):
            assert a.interval.hi <= b.interval.hi + 1e-9


def _bits(neighbors):
    return [(n.oid, n.interval.lo.hex(), n.interval.hi.hex()) for n in neighbors]


@pytest.mark.parametrize("kind", ["road", "oneway"])
def test_browse_is_the_served_inn(kind, small_net, small_index, small_object_index):
    """``browse``'s first k is ``best_first_knn``'s ``inn`` answer at
    ``exact=False``: the same ids, in the same order, with the same
    interval bits -- vertex objects on the road network, edge objects
    and extents on the one-way one, from vertices and edge positions."""
    rng = np.random.default_rng(21)
    if kind == "road":
        net, index, object_index = small_net, small_index, small_object_index
    else:
        net = one_way(road_like_network(60, seed=3), 3)
        index = SILCIndex.build(net)
        objects = edge_and_extent_objects(net, rng, count=15)
        object_index = ObjectIndex(net, objects, index.embedding)
    everything = len(object_index.objects)
    queries = [*rng.integers(0, net.num_vertices, size=8).tolist(), _edge_position(net, rng)]
    for query in queries:
        for k in (1, 5, everything):
            served = best_first_knn(index, object_index, query, k, variant="inn")
            browsed = list(itertools.islice(browse(index, object_index, query), k))
            assert _bits(browsed) == _bits(served.neighbors), (query, k)


class TestRangeQuery:
    def test_matches_brute_force(
        self, small_net, small_index, small_objects, small_dist
    ):
        oi = ObjectIndex(small_net, small_objects, small_index.embedding)
        all_d = truth(small_dist, small_objects, 40)
        radius = all_d[len(all_d) // 2][0] + 1e-9  # include half the objects
        result = range_query(small_index, oi, 40, radius)
        expected_ids = sorted(oid for d, oid in all_d if d <= radius)
        assert sorted(result.ids()) == expected_ids

    def test_zero_radius(self, small_net, small_index, small_objects, small_dist):
        oi = ObjectIndex(small_net, small_objects, small_index.embedding)
        # query placed exactly on an object's vertex -> distance 0 hit
        target = small_objects[0].position.vertex
        result = range_query(small_index, oi, target, 0.0)
        assert 0 in result.ids()

    def test_huge_radius_returns_everything(
        self, small_net, small_index, small_objects
    ):
        oi = ObjectIndex(small_net, small_objects, small_index.embedding)
        result = range_query(small_index, oi, 3, 1e9)
        assert len(result) == len(small_objects)

    def test_results_sorted(self, small_net, small_index, small_objects, small_dist):
        oi = ObjectIndex(small_net, small_objects, small_index.embedding)
        result = range_query(small_index, oi, 9, 30.0)
        los = [n.interval.lo for n in result.neighbors]
        assert los == sorted(los)

    def test_hits_are_not_promised_in_distance_order(
        self, small_net, small_index, small_objects, small_dist
    ):
        """Membership is decided by bounds: a hit whose whole interval
        lies inside the radius is confirmed as it is popped, by lower
        bound, so the answer is not in distance order and says so."""
        oi = ObjectIndex(small_net, small_objects, small_index.embedding)
        result = range_query(small_index, oi, 0, 30.0)
        d = [float(small_dist[0, small_objects[n.oid].position.vertex]) for n in result.neighbors]
        assert d != sorted(d)
        assert result.ordered is False

    def test_negative_radius_rejected(self, small_index, small_object_index):
        with pytest.raises(ValueError):
            range_query(small_index, small_object_index, 0, -1.0)

    def test_interval_hits_within_radius(
        self, small_net, small_index, small_objects, small_dist
    ):
        oi = ObjectIndex(small_net, small_objects, small_index.embedding)
        radius = 25.0
        result = range_query(small_index, oi, 22, radius)
        for n in result.neighbors:
            d = float(small_dist[22, small_objects[n.oid].position.vertex])
            assert d <= radius + 1e-9


class TestApproximateKNN:
    def test_epsilon_zero_is_exact(
        self, small_net, small_index, small_objects, small_dist
    ):
        oi = ObjectIndex(small_net, small_objects, small_index.embedding)
        expected = [d for d, _ in truth(small_dist, small_objects, 15)[:5]]
        result = approximate_knn(small_index, oi, 15, 5, epsilon=0.0)
        got = sorted(
            float(small_dist[15, small_objects[n.oid].position.vertex])
            for n in result.neighbors
        )
        np.testing.assert_allclose(got, expected, rtol=1e-9)

    @pytest.mark.parametrize("epsilon", [0.05, 0.25, 1.0])
    def test_approximation_guarantee(
        self, epsilon, small_net, small_index, small_objects, small_dist, rng
    ):
        oi = ObjectIndex(small_net, small_objects, small_index.embedding)
        k = 6
        for _ in range(8):
            q = int(rng.integers(0, small_net.num_vertices))
            exact = [d for d, _ in truth(small_dist, small_objects, q)[:k]]
            result = approximate_knn(small_index, oi, q, k, epsilon=epsilon)
            got = sorted(
                float(small_dist[q, small_objects[n.oid].position.vertex])
                for n in result.neighbors
            )
            for got_d, true_d in zip(got, exact):
                assert got_d <= (1.0 + epsilon) * true_d + 1e-9

    def test_larger_epsilon_never_more_refinements(
        self, small_net, small_index, small_objects
    ):
        oi = ObjectIndex(small_net, small_objects, small_index.embedding)
        tight = approximate_knn(small_index, oi, 8, 5, epsilon=0.0)
        loose = approximate_knn(small_index, oi, 8, 5, epsilon=0.5)
        assert loose.stats.refinements <= tight.stats.refinements

    def test_validation(self, small_index, small_object_index):
        with pytest.raises(ValueError):
            approximate_knn(small_index, small_object_index, 0, 5, epsilon=-0.1)
        with pytest.raises(ValueError):
            approximate_knn(small_index, small_object_index, 0, 0, epsilon=0.1)


class TestAggregateNN:
    @pytest.mark.parametrize("agg,fold", [("sum", sum), ("max", max)])
    def test_matches_brute_force(
        self, agg, fold, small_net, small_index, small_objects, small_dist
    ):
        oi = ObjectIndex(small_net, small_objects, small_index.embedding)
        sources = [3, 61, 120]
        expected = sorted(
            (
                fold(float(small_dist[s, o.position.vertex]) for s in sources),
                o.oid,
            )
            for o in small_objects
        )[:4]
        result = aggregate_nn(small_index, oi, sources, 4, agg=agg)
        np.testing.assert_allclose(
            sorted(n.distance for n in result.neighbors),
            [d for d, _ in expected],
            rtol=1e-9,
        )

    def test_single_source_equals_knn(
        self, small_net, small_index, small_objects, small_dist
    ):
        from repro.query import knn

        oi = ObjectIndex(small_net, small_objects, small_index.embedding)
        agg = aggregate_nn(small_index, oi, [9], 5, agg="sum")
        base = knn(small_index, oi, 9, 5, exact=True)
        np.testing.assert_allclose(
            sorted(n.distance for n in agg.neighbors),
            sorted(n.distance for n in base.neighbors),
            rtol=1e-9,
        )

    def test_validation(self, small_index, small_object_index):
        with pytest.raises(ValueError):
            aggregate_nn(small_index, small_object_index, [], 3)
        with pytest.raises(ValueError):
            aggregate_nn(small_index, small_object_index, [0], 0)
        with pytest.raises(ValueError):
            aggregate_nn(small_index, small_object_index, [0], 3, agg="median")


class TestDistanceJoin:
    def test_matches_brute_force(self, small_net, small_index, small_dist):
        left = random_vertex_objects(small_net, count=6, seed=51)
        right = random_vertex_objects(small_net, count=9, seed=52)
        li = ObjectIndex(small_net, left, small_index.embedding)
        ri = ObjectIndex(small_net, right, small_index.embedding)
        expected = sorted(
            (
                float(small_dist[a.position.vertex, b.position.vertex]),
                a.oid,
                b.oid,
            )
            for a in left
            for b in right
        )[:7]
        got = distance_join(small_index, li, ri, 7)
        np.testing.assert_allclose(
            [d for _, _, d in got], [d for d, _, _ in expected], rtol=1e-9
        )

    def test_results_sorted(self, small_net, small_index):
        left = random_vertex_objects(small_net, count=5, seed=53)
        right = random_vertex_objects(small_net, count=5, seed=54)
        li = ObjectIndex(small_net, left, small_index.embedding)
        ri = ObjectIndex(small_net, right, small_index.embedding)
        got = distance_join(small_index, li, ri, 10)
        dists = [d for _, _, d in got]
        assert dists == sorted(dists)

    def test_k_larger_than_pairs(self, small_net, small_index):
        left = random_vertex_objects(small_net, count=2, seed=55)
        right = random_vertex_objects(small_net, count=2, seed=56)
        li = ObjectIndex(small_net, left, small_index.embedding)
        ri = ObjectIndex(small_net, right, small_index.embedding)
        got = distance_join(small_index, li, ri, 100)
        assert len(got) == 4

    def test_k_validation(self, small_index, small_object_index):
        with pytest.raises(ValueError):
            distance_join(small_index, small_object_index, small_object_index, 0)
