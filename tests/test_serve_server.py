"""AsyncEngine and SILCServer: the serving pipeline end to end.

Async tests drive their own event loop with ``asyncio.run`` so the
suite has no plugin dependency.
"""

import asyncio
import io
import json
import threading

import pytest

from repro.engine import QueryEngine
from repro.query import best_first_knn
from repro.serve import (
    AdmissionController,
    AsyncEngine,
    FairScheduler,
    Request,
    SILCServer,
    serve_jsonl,
)
from repro.serve.protocol import KINDS, Completed, Failed, request_from_dict


TIMEOUT = 30.0  # every wait in this file is bounded


@pytest.fixture()
def engine(small_index, small_object_index):
    return QueryEngine(small_index, small_object_index, cache_fraction=0.05)


def knn_req(query, client="web", rid=0, k=3, deadline=None):
    # exact=False: these tests compare against library calls that use
    # the engine's non-exact default.
    return Request(id=rid, client=client, kind="knn", queries=(query,), k=k,
                   exact=False, deadline=deadline)


def batch_req(queries, client="bulk", rid=0, k=2):
    return Request(id=rid, client=client, kind="knn_batch",
                   queries=tuple(queries), k=k, exact=False)


class TestAsyncEngine:
    def test_matches_sync_engine(self, engine, small_index, small_object_index):
        async def go():
            async with AsyncEngine(engine) as ae:
                return (
                    await ae.knn(0, 4),
                    await ae.knn_batch([5, 9, 13], 2),
                    await ae.path(0, 140),
                    await ae.distance(0, 140),
                )

        result, batch, path, dist = asyncio.run(go())
        expected = best_first_knn(small_index, small_object_index, 0, 4)
        assert result.ids() == expected.ids()
        assert [r.ids() for r in batch] == [r.ids() for r in QueryEngine(
            small_index, small_object_index
        ).knn_batch([5, 9, 13], 2)]
        assert path == small_index.path(0, 140)
        assert dist == pytest.approx(small_index.distance(0, 140))

    def test_many_concurrent_tasks(self, engine, small_index):
        """Many gathered calls, one after another on the loop thread:
        safe and exact."""
        queries = [(q, 1 + q % 4) for q in range(0, 120, 3)]

        async def go():
            async with AsyncEngine(engine) as ae:
                return await asyncio.gather(
                    *(ae.knn(q, k, exact=True) for q, k in queries)
                )

        results = asyncio.run(go())
        reference = QueryEngine(engine.index, engine.object_index)
        for (q, k), result in zip(queries, results):
            assert result.ids() == reference.knn(q, k, exact=True).ids()
        # the shared simulator was restored after every call
        assert small_index.storage is None
        assert engine.storage.stats.accesses > 0

    def test_closed_engine_rejects_calls(self, engine):
        async def go():
            ae = AsyncEngine(engine)
            ae.close()
            with pytest.raises(RuntimeError, match="closed"):
                await ae.knn(0, 2)

        asyncio.run(go())


    def test_close_still_delivers_an_outcome_already_handed_over(self, engine):
        """A call has run when it returns; ``close()`` right after it
        refuses the next call but does not drop that outcome."""
        async def go():
            ae = AsyncEngine(engine)
            made = ae.knn(0, 3)
            ae.close()
            with pytest.raises(RuntimeError, match="^AsyncEngine is closed$"):
                ae.knn(0, 3)
            return await made

        assert asyncio.run(go()).ids() == engine.knn(0, 3).ids()

    def test_a_done_that_raises_is_reported_once_and_the_call_returns(self, engine):
        """``done`` runs before the call returns; what it raises goes to
        the loop's exception handler, once, as it did when ``done`` was a
        loop callback -- the call neither raises it (a caller would take
        that for a call that never ran) nor runs ``done`` again."""
        reported, outcomes = [], []

        def done(value, exc):
            outcomes.append((value.ids(), exc))
            raise LookupError("cannot take it")

        async def go():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: reported.append(context["exception"])
            )
            async with AsyncEngine(engine) as ae:
                assert ae.knn(0, 3, done=done) is None

        asyncio.run(go())
        assert outcomes == [(engine.knn(0, 3).ids(), None)]
        assert [str(e) for e in reported] == ["cannot take it"]

    def test_a_result_for_a_loop_that_closed_is_dropped(self, engine):
        """A call made on a loop that closes without reading its outcome
        reports nothing there, and the engine goes on serving other
        loops."""
        reported = []
        ae = AsyncEngine(engine)
        try:
            async def abandon():
                asyncio.get_running_loop().set_exception_handler(
                    lambda loop, context: reported.append(context)
                )
                ae.knn(0, 3)  # made, never awaited

            asyncio.run(abandon())

            async def again():
                return await ae.knn(5, 2)

            assert asyncio.run(again()).ids() == engine.knn(5, 2).ids()
        finally:
            ae.close()
        assert not reported

    def test_sharded_calls_run_in_call_order_on_the_loop_thread(self, engine):
        """Each sharded call has visited its worker, on the loop's own
        thread, by the time it returns; gathered calls therefore run one
        after another and are delivered in the order they were made."""
        queries = (0, 9, 17)
        visits, delivered = [], []

        async def go():
            async with AsyncEngine(engine, shards=2) as ae:
                real = ae.shard_group.knn

                def visit(query, *args, **kwargs):
                    visits.append((query, threading.get_ident()))
                    return real(query, *args, **kwargs)

                ae.shard_group.knn = visit
                made = []
                for i, query in enumerate(queries):
                    made.append(ae.knn(query, 3, exact=True))
                    assert len(visits) == i + 1  # ran before knn() returned
                    made[-1].add_done_callback(lambda _, q=query: delivered.append(q))
                return threading.get_ident(), await asyncio.gather(*made)

        loop_thread, results = asyncio.run(go())
        assert visits == [(query, loop_thread) for query in queries]
        assert delivered == list(queries)
        for query, result in zip(queries, results):
            assert result.ids() == engine.knn(query, 3, exact=True).ids()


def serve(requests, engine, **server_kwargs):
    """Run a request list through a fresh server; responses in order."""

    async def go():
        async with AsyncEngine(engine) as ae:
            server = SILCServer(ae, **server_kwargs)
            async with server:
                responses = await asyncio.gather(
                    *(server.submit(r) for r in requests)
                )
            return responses, server.snapshot()

    return asyncio.run(go())


class TestSILCServer:
    def test_knn_matches_library(self, engine, small_index, small_object_index):
        [resp], _ = serve([knn_req(7, rid=42)], engine)
        assert resp.status == "ok"
        assert resp.id == 42
        expected = best_first_knn(small_index, small_object_index, 7, 3)
        assert resp.result["ids"] == expected.ids()

    def test_batch_reassembled_across_chunks(self, engine, small_index, small_object_index):
        queries = list(range(0, 40))
        [resp], snapshot = serve(
            [batch_req(queries, rid=1)],
            engine,
            scheduler=FairScheduler(chunk_size=8),
        )
        assert resp.status == "ok"
        expected = QueryEngine(small_index, small_object_index).knn_batch(queries, 2)
        assert resp.result["ids"] == [r.ids() for r in expected]
        assert len(resp.result["distances"]) == len(queries)
        assert snapshot.served == 1
        assert snapshot.stats.refinements == expected.stats.refinements

    def test_path_and_distance_kinds(self, engine, small_index):
        responses, _ = serve(
            [
                Request(id=1, client="a", kind="path", queries=(0, 99)),
                Request(id=2, client="a", kind="distance", queries=(0, 99)),
            ],
            engine,
        )
        assert responses[0].result["path"] == small_index.path(0, 99)
        assert responses[1].result["distance"] == pytest.approx(
            small_index.distance(0, 99)
        )

    def test_never_fitting_request_rejected_as_too_large(self, engine):
        [resp], snapshot = serve(
            [batch_req(range(50), rid=9)],
            engine,
            admission=AdmissionController(max_in_flight=10),
        )
        assert resp.status == "rejected"
        assert resp.reason == "request_too_large"  # terminal: don't retry
        assert resp.retry_after == 0
        assert snapshot.shed == 1 and snapshot.served == 0

    def test_transient_overload_rejected_with_retry_after(self, engine):
        # each request fits alone, but not both at once
        responses, snapshot = serve(
            [batch_req(range(8), rid=1), batch_req(range(8), rid=2)],
            engine,
            admission=AdmissionController(max_in_flight=10),
        )
        statuses = sorted(r.status for r in responses)
        assert statuses == ["ok", "rejected"]
        [rejected] = [r for r in responses if r.status == "rejected"]
        assert rejected.reason == "in_flight_cap"
        assert rejected.retry_after > 0
        assert snapshot.shed == 1 and snapshot.served == 1

    def test_cancelled_submit_releases_admission_budget(self, engine):
        """A caller timeout must not leak in-flight budget forever."""

        async def go():
            async with AsyncEngine(engine) as ae:
                server = SILCServer(
                    ae,
                    scheduler=FairScheduler(chunk_size=2),
                    admission=AdmissionController(max_in_flight=10),
                )
                async with server:
                    task = asyncio.create_task(
                        server.submit(batch_req(range(10), rid=1))
                    )
                    await asyncio.sleep(0)  # admitted, chunks queued
                    assert server.admission.in_flight == 10
                    task.cancel()
                    with pytest.raises(asyncio.CancelledError):
                        await task
                    assert server.admission.in_flight == 0
                    # the server still serves new work afterwards
                    response = await server.submit(knn_req(0, rid=2))
                    assert response.status == "ok"
                    assert not server.scheduler.sched_delays  # no leak
                return server.snapshot()

        snapshot = asyncio.run(go())
        assert snapshot.in_flight == 0

    def test_queued_deadline_expires(self, engine):
        ticks = iter(range(1000))

        def clock():  # one full second per observation: everything is late
            return float(next(ticks))

        responses, snapshot = serve(
            [knn_req(0, rid=1, deadline=0.5), knn_req(5, rid=2)],
            engine,
            clock=clock,
        )
        assert responses[0].status == "expired"
        assert responses[0].waited > 0.5
        assert responses[1].status == "ok"
        assert snapshot.expired == 1 and snapshot.served == 1

    def test_a_backlog_of_expired_requests_is_settled_without_a_hand_off(self, engine):
        """The pump walks the backlog in a loop: 5 000 spent deadlines
        are neither 5 000 stack frames nor a single engine call."""
        ticks = iter(range(100_000))
        handed = []

        async def go():
            async with AsyncEngine(engine) as ae:
                run = ae._run
                ae._run = lambda *a, **kw: handed.append(a) or run(*a, **kw)
                server = SILCServer(
                    ae, clock=lambda: float(next(ticks)),
                    admission=AdmissionController(max_in_flight=None),
                )
                async with server:
                    responses = await asyncio.gather(*(
                        server.submit(knn_req(0, client=f"c{i % 5}", rid=i, deadline=0.5))
                        for i in range(5000)
                    ))
                return responses, server.snapshot()

        responses, snapshot = asyncio.run(go())
        assert [r.id for r in responses] == list(range(5000))
        assert {r.status for r in responses} == {"expired"}
        assert not any(r.aborted for r in responses)
        assert not handed
        assert (snapshot.expired, snapshot.in_flight, snapshot.queue_depths) == (5000, 0, {})

    def test_query_error_surfaces_as_failed(self, engine):
        bad = knn_req(10**9, rid=3)  # vertex far out of range
        [resp], snapshot = serve([bad], engine)
        assert resp.status == "error"
        assert "1000000000" in resp.error
        assert snapshot.failed == 1

    def test_failed_batch_drops_remaining_chunks(self, engine):
        queries = [10**9] + list(range(30))  # first chunk raises
        [resp], snapshot = serve(
            [batch_req(queries, rid=4)],
            engine,
            scheduler=FairScheduler(chunk_size=4),
        )
        assert resp.status == "error"
        assert snapshot.failed == 1 and snapshot.served == 0
        # the admitted cost was released exactly once
        assert snapshot.in_flight == 0

    def test_admission_released_after_completion(self, engine):
        requests = [knn_req(q, rid=q) for q in range(6)]
        responses, snapshot = serve(
            requests, engine, admission=AdmissionController(max_in_flight=1024)
        )
        assert all(r.status == "ok" for r in responses)
        assert snapshot.in_flight == 0
        assert snapshot.p95 >= snapshot.p50 >= 0

    def test_submit_requires_started_server(self, engine):
        async def go():
            async with AsyncEngine(engine) as ae:
                server = SILCServer(ae)
                with pytest.raises(RuntimeError, match="not started"):
                    await server.submit(knn_req(0))

        asyncio.run(go())


#: One wire record that every kind accepts: each reads the fields it needs.
EVERY_FIELD = {"client": "web", "query": 7, "queries": [7, 11], "source": 0, "target": 99, "k": 2}


@pytest.fixture(scope="class", params=[1, 2], ids=["local", "2-shards"])
def served_engine(request, small_index, small_object_index):
    async_engine = AsyncEngine(QueryEngine(small_index, small_object_index), shards=request.param)
    yield async_engine
    async_engine.close()


class TestEveryKindIsServed:
    """One request of each kind in ``KINDS``, locally and on two shard
    workers, comes back ``Completed``: a kind added there without an arm
    in the server's dispatch (``_pump``) or reply assembly (``_settle``)
    fails here, as does an arm deleted from either."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_is_answered(self, served_engine, kind):
        request = request_from_dict({**EVERY_FIELD, "id": kind, "kind": kind})

        async def go():
            async with SILCServer(served_engine) as server:
                return await server.submit(request)

        response = asyncio.run(asyncio.wait_for(go(), TIMEOUT))
        assert isinstance(response, Completed), response
        assert response.id == kind


class TestAFailingPump:
    """A step of the pump's own bookkeeping that raises -- here the
    server's clock, read for the queueing time of a request with a
    deadline -- answers the request it was preparing ``failed``; the
    next request is served and the server drains and stops."""

    def test_answers_failed_and_stops(self, engine):
        readings = iter(range(1000))

        def clock():
            reading = next(readings)
            if reading == 1:  # the first request's first dispatch
                raise RuntimeError("the clock broke")
            return float(reading)

        async def go():
            # Each wait bounded on its own: a stop() cancelled from
            # outside the `async with` would wait on after the cancel.
            async with AsyncEngine(engine) as ae:
                server = SILCServer(ae, clock=clock)
                await server.start()
                try:
                    first = await asyncio.wait_for(
                        server.submit(knn_req(0, rid=1, deadline=1e6)), 5.0
                    )
                    second = await asyncio.wait_for(
                        server.submit(knn_req(5, rid=2, deadline=1e6)), 5.0
                    )
                finally:
                    await asyncio.wait_for(server.stop(), 5.0)
                return first, second, server.snapshot()

        first, second, snapshot = asyncio.run(go())
        assert isinstance(first, Failed) and first.id == 1, first
        assert first.error == "RuntimeError: the clock broke"
        assert isinstance(second, Completed) and second.id == 2, second
        assert (snapshot.failed, snapshot.served, snapshot.in_flight) == (1, 1, 0)


class TestBadRequestParity:
    def test_shard_tier_fails_like_the_local_engine(self, engine, monkeypatch):
        """k < 1 and an unknown variant are refused with the kernel's own
        words on both tiers, and the shard tier says so before anything
        crosses a pipe."""
        from repro.shard.worker import ShardWorker

        bad = [
            Request(id=1, client="a", kind="knn", queries=(0,), k=0),
            Request(id=2, client="a", kind="knn", queries=(0,), k=-3),
            Request(id=3, client="a", kind="knn", queries=(0,), variant="bogus"),
            Request(id=4, client="a", kind="knn_batch", queries=(0, 5), k=0),
        ]
        sent = []
        real_request = ShardWorker.request

        def recording(worker, message, timeout=None):
            sent.append(message[0])
            return real_request(worker, message, timeout)

        monkeypatch.setattr(ShardWorker, "request", recording)

        async def go(shards):
            async with AsyncEngine(engine, shards=shards) as ae:
                async with SILCServer(ae) as server:
                    return [await server.submit(r) for r in bad]

        local, sharded = asyncio.run(go(1)), asyncio.run(go(2))
        assert [r.status for r in local] == ["error"] * len(bad)
        assert [r.error for r in sharded] == [r.error for r in local]
        assert local[0].error == "ValueError: k must be at least 1"
        assert local[2].error.startswith("ValueError: unknown variant 'bogus'")
        assert "knn" not in sent  # spawn-time pings only


class TestServeJsonl:
    def test_round_trip(self, engine, small_index, small_object_index):
        lines = [
            {"id": 1, "client": "a", "kind": "knn", "query": 0, "k": 2},
            {"id": 2, "client": "b", "kind": "distance", "source": 0, "target": 90},
            {"kind": "nope"},
            {"id": 3, "client": "b", "kind": "knn_batch", "queries": [1, 2], "k": 1},
        ]
        in_stream = io.StringIO("\n".join(json.dumps(l) for l in lines) + "\n# comment\n\n")
        out_stream = io.StringIO()

        async def go():
            async with AsyncEngine(engine) as ae:
                return await serve_jsonl(SILCServer(ae), in_stream, out_stream)

        snapshot = asyncio.run(go())
        records = [json.loads(l) for l in out_stream.getvalue().splitlines()]
        by_id = {r["id"]: r for r in records if "id" in r}
        assert by_id[1]["status"] == "ok"
        assert by_id[1]["ids"] == best_first_knn(
            small_index, small_object_index, 0, 2, exact=True
        ).ids()
        assert by_id[2]["distance"] == pytest.approx(small_index.distance(0, 90))
        assert by_id[3]["status"] == "ok"
        [bad] = [r for r in records if r["status"] == "error"]
        assert "bad request" in bad["error"]
        assert snapshot.served == 3
