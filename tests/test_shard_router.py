"""Property-style check: sharded kNN == unsharded exact kNN.

The acceptance bar of the sharded tier: for random queries, any k and
any shard count, the answer one worker sends back must be *identical*
to the single-process exact engine -- including edge-positioned
objects and extents.  And the dispatcher's contract: one client stays
on one worker; concurrent callers each get their own.
"""

import dataclasses
import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import ObjectIndex, SILCIndex, road_like_network
from repro.datasets import random_vertex_objects
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
from repro.obs import Tracer
from repro.query.bestfirst import VARIANTS
from repro.shard import ShardGroup
from reference import delay_pipe, random_edge_objects
from repro.faults import FaultInjector


def ranked(result):
    """Comparable (distance, oid) pairs, rounded past float noise."""
    return [(round(n.distance, 9), n.oid) for n in result.neighbors]


@pytest.fixture(scope="module")
def setup():
    net = road_like_network(150, seed=5)
    index = SILCIndex.build(net)

    objects = list(random_vertex_objects(net, count=40, seed=7))
    objects += [
        dataclasses.replace(o, oid=o.oid + 1000)
        for o in random_edge_objects(net, count=12, seed=8)
    ]
    # One extent spanning the network: a part at each end of the
    # Morton order, under a single global oid.
    v_a = int(np.argmin(index.vertex_codes))
    v_b = int(np.argmax(index.vertex_codes))
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
        """The spanning extent surfaces exactly once."""
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
        counted = groups[4].registry.counter_value
        queries = counted("router_queries_total", stage="route")
        assert queries > 0
        # One worker visit per query: none of them failed over.
        assert counted("router_shards_total", stage="route", event="visited") == queries
        assert counted("router_candidates_total", stage="route") > 0


def shard_spans(trace):
    return [span.name for span in trace.spans if span.name.startswith("shard:")]


def lent_at_once(traces):
    """Per slot, the most ``shard:<id>`` spans open at one time: the span
    opens after the slot is lent and closes before it is returned."""
    edges = sorted(
        (t, opens, span.name)
        for trace in traces for span in trace.spans if span.name.startswith("shard:")
        for t, opens in ((span.start, 1), (span.end, -1))
    )
    lent, most = Counter(), Counter()
    for _, opens, name in edges:
        lent[name] += opens
        most[name] = max(most[name], lent[name])
    return most


class TestDispatch:
    def test_sequential_calls_land_on_one_worker(self, setup, groups):
        """The worker returned last is lent first, so one client never
        moves: bench/'s counted metrics repeat round after round
        because of this, and that worker's caches stay warm."""
        _, _, engine = setup
        tracer = Tracer()
        visited = Counter()
        for q in (3, 59, 101, 7, 140):
            trace = tracer.start_trace()
            result = groups[4].knn(q, 3, trace=trace)
            assert ranked(result) == ranked(engine.knn(q, 3, exact=True))
            visited.update(shard_spans(trace))
        assert visited == {"shard:0": 5}

    def test_concurrent_callers_each_get_their_own_worker(self, setup):
        """Every worker held up on its pipe: four callers at once get
        four different workers, and no worker is lent to two of them."""
        _, _, engine = setup
        injector = FaultInjector()
        for shard in range(4):
            delay_pipe(injector, shard, 0.3)
        with ShardGroup.from_engine(engine, 4, fault_injector=injector) as group:
            queries = [3, 59, 101, 140]
            tracer = Tracer()
            ready = threading.Barrier(len(queries), timeout=30)

            def call(query):
                trace = tracer.start_trace()
                ready.wait()
                return group.knn(query, 3, trace=trace), trace

            with ThreadPoolExecutor(len(queries)) as pool:
                outcomes = list(pool.map(call, queries))
        for query, (result, _) in zip(queries, outcomes):
            assert ranked(result) == ranked(engine.knn(query, 3, exact=True))
        traces = [trace for _, trace in outcomes]
        assert set(lent_at_once(traces).values()) == {1}
        assert sorted(name for trace in traces for name in shard_spans(trace)) == [
            f"shard:{shard}" for shard in range(4)
        ]

    def test_more_callers_than_workers_wait_their_turn(self, setup):
        """Eight threads, two workers, a switch interval short enough to
        interleave the lend and the return: every answer right, no worker
        ever lent twice at once, every visit counted, both slots back."""
        _, _, engine = setup
        queries = [3, 59, 101, 140, 7, 88, 120, 33]
        expected = {q: ranked(engine.knn(q, 3, exact=True)) for q in queries}
        with ShardGroup.from_engine(engine, 2) as group:
            tracer = Tracer()
            traces, wrong = [], []

            def client(offset):
                for q in queries[offset:] + queries[:offset]:
                    trace = tracer.start_trace()
                    traces.append(trace)
                    if ranked(group.knn(q, 3, trace=trace)) != expected[q]:
                        wrong.append(q)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=client, args=(i,)) for i in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert wrong == []
            assert set(lent_at_once(traces).values()) == {1}
            visited = group.registry.counter_value(
                "router_shards_total", stage="route", event="visited"
            )
            assert visited == 8 * len(queries)
            assert sorted(group._idle.queue) == [0, 1]


def counted(stats):
    """A result's stats without its wall clock."""
    return dataclasses.replace(stats, elapsed=0.0)


class TestOneAnswerForEveryShardCount:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_the_engines_own_answer_order_and_counted_ops(self, setup, groups, variant):
        """Unsharded, on 1 and on 2 shards, the same call gets the same
        result: neighbours with their bounds, in the engine's own order
        (kNN-M reports in confirmation order, which a re-sort by
        distance used to change), ``ordered`` and every counted op --
        for ``exact`` true and false (lower bounds in, lower bounds
        out)."""
        net, _, engine = setup
        rng = np.random.default_rng(23)
        for q in rng.choice(net.num_vertices, size=10, replace=False):
            for k in (5, 10, 25):
                for exact in (True, False):
                    want = engine.knn(int(q), k, variant=variant, exact=exact)
                    for shards in (1, 2):
                        got = groups[shards].knn(int(q), k, variant=variant, exact=exact)
                        assert got.neighbors == want.neighbors, (q, k, exact, shards)
                        assert got.ordered == want.ordered
                        assert counted(got.stats) == counted(want.stats)


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
        assert {m[6] for m, _ in crossed} == {True}  # `exact` rides the frame
        assert {len(response) for _, response in crossed} == {4}
        for message, response in crossed:
            want_trace = message[4]
            assert response[0] == "ok"
            assert (response[3] is not None) == want_trace
        assert {m[4] for m, _ in crossed} == {False, True}
        assert {m[5] is None for m, _ in crossed} == {False, True}


class TestWorkerLifecycle:
    def test_ping_and_close_idempotent(self, setup):
        _, _, engine = setup
        group = ShardGroup.from_engine(engine, 2)
        assert group.health_check() == {shard: True for shard in group.workers}
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
