"""Property-style check: sharded kNN == unsharded exact kNN.

The acceptance bar of the sharded tier: for random queries, any k and
any shard count, the scatter-gathered answer must be *identical* to
the single-process exact engine -- including objects straddling shard
boundaries, edge-positioned objects, and extents.
"""

import dataclasses

import numpy as np
import pytest

from repro import ObjectIndex, SILCIndex, road_like_network
from repro.datasets import random_edge_objects, random_vertex_objects
from repro.engine import QueryEngine
from repro.geometry.point import Point
from repro.objects.model import (
    EdgePosition,
    ExtentPosition,
    ObjectSet,
    SpatialObject,
    VertexPosition,
    position_point,
)
from repro.shard import ShardGroup, ShardMap


def ranked(result):
    """Comparable (distance, oid) pairs, rounded past float noise."""
    return [(round(n.distance, 9), n.oid) for n in result.neighbors]


@pytest.fixture(scope="module")
def setup():
    net = road_like_network(150, seed=5)
    index = SILCIndex.build(net)
    smap = ShardMap.from_index(index, 4)

    objects = list(random_vertex_objects(net, count=40, seed=7))
    objects += [
        dataclasses.replace(o, oid=o.oid + 1000)
        for o in random_edge_objects(net, count=12, seed=8)
    ]
    # One extent deliberately straddling a shard boundary: a part in
    # shard 0 and a part in shard 3, under a single global oid.
    v_a = int(smap.vertices(0)[0])
    v_b = int(smap.vertices(3)[0])
    extent = ExtentPosition((VertexPosition(v_a), VertexPosition(v_b)))
    objects.append(
        SpatialObject(
            oid=2000, position=extent, point=position_point(net, extent)
        )
    )
    object_index = ObjectIndex(net, ObjectSet(objects), index.embedding)
    engine = QueryEngine(index, object_index)
    return net, index, engine


@pytest.fixture(scope="module")
def groups(setup):
    _, _, engine = setup
    opened = {
        shards: ShardGroup.from_engine(engine, shards) for shards in (1, 2, 4)
    }
    yield opened
    for group in opened.values():
        group.close()


class TestShardedEqualsUnsharded:
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_random_vertex_queries(self, setup, groups, num_shards, k):
        net, _, engine = setup
        group = groups[num_shards]
        rng = np.random.default_rng(17)
        for q in rng.choice(net.num_vertices, size=8, replace=False):
            expected = ranked(engine.knn(int(q), k, exact=True))
            assert ranked(group.knn(int(q), k)) == expected

    def test_edge_position_query(self, setup, groups):
        net, _, engine = setup
        a, b, _ = next(net.iter_edges())
        query = EdgePosition(a, b, 0.4)
        for group in groups.values():
            assert ranked(group.knn(query, 5)) == ranked(
                engine.knn(query, 5, exact=True)
            )

    def test_free_point_query(self, setup, groups):
        net, _, engine = setup
        p = net.vertex_point(42)
        query = Point(p.x + 1e-4, p.y - 1e-4)
        for group in groups.values():
            assert ranked(group.knn(query, 4)) == ranked(
                engine.knn(query, 4, exact=True)
            )

    def test_boundary_extent_found_once(self, setup, groups):
        """The straddling extent surfaces exactly once (deduplicated)."""
        net, _, engine = setup
        query = 0
        k = len(engine.object_index.objects)
        result = groups[4].knn(query, k)
        oids = [n.oid for n in result.neighbors]
        assert oids.count(2000) == 1
        assert ranked(result) == ranked(engine.knn(query, k, exact=True))

    def test_variants_agree(self, setup, groups):
        _, _, engine = setup
        for variant in ("knn", "inn"):
            assert ranked(groups[2].knn(33, 5, variant=variant)) == ranked(
                engine.knn(33, 5, exact=True)
            )

    def test_knn_batch_matches(self, setup, groups):
        _, _, engine = setup
        queries = [3, 59, 101]
        batch = groups[4].knn_batch(queries, 3)
        assert len(batch.results) == 3
        for q, result in zip(queries, batch.results):
            assert ranked(result) == ranked(engine.knn(q, 3, exact=True))

    def test_stats_accounting_consistent(self, groups):
        stats = groups[4].stats
        assert stats.queries > 0
        assert (
            stats.shards_visited + stats.shards_pruned
            == stats.shards_considered
        )
        assert 0.0 <= stats.prune_rate <= 1.0


class TestPureVertexLambdaPruning:
    def test_lambda_bound_prunes_on_pure_vertex_shards(self):
        """With only vertex objects, the quadtree bound gets exercised
        and the answers still match exactly."""
        net = road_like_network(150, seed=5)
        index = SILCIndex.build(net)
        objects = random_vertex_objects(net, count=50, seed=21)
        engine = QueryEngine(index, ObjectIndex(net, objects, index.embedding))
        with ShardGroup.from_engine(engine, 4) as group:
            assert not any(group.router.has_edge[s] for s in group.workers)
            for q in (0, 50, 149):
                assert ranked(group.knn(q, 3)) == ranked(
                    engine.knn(q, 3, exact=True)
                )
            assert group.stats.bound_probes > 0


class TestPipeShape:
    def test_one_request_arity_and_one_reply_arity(self, groups, monkeypatch):
        """Untraced, traced and deadline-carrying queries cross the pipe
        in the same request shape and come back in the same reply shape."""
        from repro.obs import Tracer
        from repro.shard.worker import ShardWorker

        crossed = []
        real_request = ShardWorker.request

        def recording(worker, message, timeout=None):
            response = real_request(worker, message, timeout)
            crossed.append((message, response))
            return response

        monkeypatch.setattr(ShardWorker, "request", recording)
        group = groups[2]
        answers = [
            ranked(group.knn(33, 5)),
            ranked(group.knn(33, 5, trace=Tracer().start_trace())),
            ranked(group.knn(33, 5, time_cap=60.0)),
        ]
        assert answers[0] == answers[1] == answers[2]
        assert len(crossed) >= 3 and all(m[0] == "knn" for m, _ in crossed)
        assert {len(message) for message, _ in crossed} == {7}
        assert {len(response) for _, response in crossed} == {4}
        for message, response in crossed:
            want_trace = message[5]
            assert response[0] == "ok"
            assert (response[3] is not None) == want_trace
        assert {m[5] for m, _ in crossed} == {False, True}
        assert {m[6] is None for m, _ in crossed} == {False, True}


class TestWorkerLifecycle:
    def test_ping_and_close_idempotent(self, setup):
        _, _, engine = setup
        group = ShardGroup.from_engine(engine, 2)
        assert sorted(group.ping()) == sorted(group.workers)
        group.close()
        group.close()
        for worker in group.workers.values():
            assert not worker.process.is_alive()
        assert not group.directory.exists()

    def test_worker_error_is_raised_in_parent(self, setup):
        _, _, engine = setup
        with ShardGroup.from_engine(engine, 2) as group:
            worker = next(iter(group.workers.values()))
            with pytest.raises(RuntimeError, match="unknown request"):
                worker.request(("bogus",))
            # The worker survives a bad request and keeps serving.
            assert worker.ping() == worker.shard_id
