"""`serve_jsonl` over real pipes: the behaviour the front end keeps.

The client is the test thread (see ``conftest.PipedServe``): it can
wait for a reply before it sends the next line, which a request file
cannot, so nothing here depends on how fast the reader thread is
relative to the first query.
"""

import asyncio
import gc
import sys
import threading
import time

import pytest

from repro.engine import QueryEngine
from repro.obs import Tracer
from repro.serve import (
    AdmissionController,
    AsyncEngine,
    FairScheduler,
    Request,
    SILCServer,
)

CHUNK = 4
TIMEOUT = 30.0  # every wait in this file is bounded


@pytest.fixture()
def engine(small_index, small_object_index):
    return QueryEngine(small_index, small_object_index, cache_fraction=0.05)


def knn(rid, query, client="web", **extra):
    return {"id": rid, "client": client, "kind": "knn", "query": query, "k": 3, **extra}


def batch(rid, queries, client="bulk"):
    return {"id": rid, "client": client, "kind": "knn_batch",
            "queries": list(queries), "k": 2}


def hold(engine, method):
    """Make ``engine.method`` wait in the executor until the returned
    event is set, so a test decides what is queued behind the call."""
    released = threading.Event()
    real = getattr(engine, method)

    def held(*args, **kwargs):
        assert released.wait(TIMEOUT)
        return real(*args, **kwargs)

    setattr(engine, method, held)
    return released


def wait_until(condition):
    deadline = time.monotonic() + TIMEOUT
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


FOUR_KINDS = [
    knn(1, 7),
    batch(2, range(10)),
    {"id": 3, "client": "web", "kind": "path", "source": 0, "target": 140},
    {"id": 4, "client": "web", "kind": "distance", "source": 0, "target": 140},
]


def answer(reply):
    """A reply without its timing fields."""
    return {k: v for k, v in reply.items() if k not in ("latency", "sched_delay")}


class TestLines:
    def test_comments_and_blanks_skipped_bad_line_answered(
        self, engine, piped_serve, small_index
    ):
        piped = piped_serve(AsyncEngine(engine))
        piped.send("# a comment", "", "   ", "not json", {"kind": "nope"})
        errors = [piped.recv(), piped.recv()]
        assert all(r["status"] == "error" and "bad request" in r["error"]
                   for r in errors)
        # ... and the loop carried on
        reply = piped.ask(FOUR_KINDS[2])
        assert reply["path"] == small_index.path(0, 140)
        assert reply["distance"] == small_index.distance(0, 140)
        snapshot = piped.close()
        assert snapshot.served == 1 and snapshot.failed == 0

    def test_bad_request_reply_carries_the_id_it_was_sent_with(
        self, engine, piped_serve
    ):
        """A line that parsed as an object but is no valid request is
        answered under its own id and client, so a closed-loop client
        waiting on that id gets its reply (NaN is what ``json`` reads
        ``NaN`` as; it is no budget)."""
        piped = piped_serve(AsyncEngine(engine))
        assert piped.ask({"id": 7, "client": "web", "kind": "knn"}) == {
            "id": 7, "client": "web", "status": "error",
            "error": "bad request: 'query'",
        }
        assert piped.ask('{"id": "x-9", "kind": "knn", "query": 0, "deadline": NaN}') == {
            "id": "x-9", "status": "error",
            "error": "bad request: deadline must be a positive budget in seconds",
        }
        # nothing to echo: not an object, or an object without an id
        assert set(piped.ask("[1, 2]")) == {"status", "error"}
        assert set(piped.ask({"kind": "nope"})) == {"status", "error"}
        snapshot = piped.close()
        assert snapshot.served == 0 and snapshot.failed == 0

    def test_four_kinds_closed_loop_equal_a_request_file(
        self, engine, piped_serve, tmp_path
    ):
        piped = piped_serve(AsyncEngine(engine))
        closed_loop = [answer(piped.ask(r)) for r in FOUR_KINDS]
        assert piped.close().served == 4
        # the same lines all at once (what `--input FILE` amounts to)
        piped = piped_serve(AsyncEngine(engine))
        piped.send(*FOUR_KINDS)
        at_once = sorted((answer(piped.recv()) for _ in FOUR_KINDS),
                         key=lambda r: r["id"])
        piped.close()
        assert at_once == closed_loop
        assert all(r["status"] == "ok" for r in closed_loop)


    def test_burst_under_a_short_switch_interval_answers_each_once(
        self, engine, piped_serve
    ):
        """The reader thread and the loop share nothing but
        ``call_soon_threadsafe``; a lost or doubled hand-off would show
        as a missing or repeated id."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            piped = piped_serve(AsyncEngine(engine))
            burst = [knn(i, i % 150, client=f"c{i % 7}") for i in range(300)]
            piped.send(*burst[:150])
            piped.send(*burst[150:])
            replies = [piped.recv() for _ in burst]
            snapshot = piped.close()
        finally:
            sys.setswitchinterval(interval)
        assert sorted(r["id"] for r in replies) == list(range(300))
        assert all(r["status"] == "ok" for r in replies)
        assert (snapshot.served, snapshot.in_flight) == (300, 0)


class TestPolicies:
    def test_rejected_under_the_in_flight_cap(self, engine, piped_serve):
        piped = piped_serve(
            AsyncEngine(engine), admission=AdmissionController(max_in_flight=10)
        )
        too_large = piped.ask(batch(1, range(50)))
        assert too_large["status"] == "rejected"
        assert too_large["reason"] == "request_too_large"
        # Each fits alone, not both at once: the first is held in the
        # executor until the second has been turned away.
        release = hold(engine, "knn_batch")
        piped.send(batch(2, range(8)), batch(3, range(8)))
        rejected = piped.recv()
        assert (rejected["id"], rejected["status"]) == (3, "rejected")
        assert rejected["reason"] == "in_flight_cap"
        assert rejected["retry_after"] > 0
        release.set()
        assert piped.recv()["status"] == "ok"
        snapshot = piped.close()
        assert (snapshot.shed, snapshot.served, snapshot.in_flight) == (2, 1, 0)

    def test_expired_on_a_spent_deadline(self, engine, piped_serve):
        ticks = iter(range(10_000))
        piped = piped_serve(
            AsyncEngine(engine), clock=lambda: float(next(ticks))  # 1 s per read
        )
        late = piped.ask(knn(1, 0, deadline=0.5))
        assert late["status"] == "expired" and late["waited"] > 0.5
        assert piped.ask(knn(2, 5))["status"] == "ok"
        snapshot = piped.close()
        assert (snapshot.expired, snapshot.served) == (1, 1)

    def test_interactive_client_overtakes_a_bulk_backlog(self, engine, piped_serve):
        """DRR by counted delay (the load-sized version with its own
        assertions is ``benchmarks/test_serve_fairness.py``)."""
        piped = piped_serve(
            AsyncEngine(engine), scheduler=FairScheduler(chunk_size=CHUNK)
        )
        bulk = batch("bulk", range(16 * CHUNK))
        web = [knn(f"web-{i}", 10 * i) for i in range(3)]
        # The bulk request's first chunk sits in the executor until all
        # three web requests are queued behind its other fifteen.  The
        # web lines go out only once that chunk is dispatched: one of
        # them queued before it and the rest after reads [4, 5, 10].
        release = hold(engine, "knn_batch")
        piped.send(bulk)
        wait_until(lambda: piped.server.scheduler.dispatched == CHUNK)
        piped.send(*web)
        wait_until(lambda: piped.server.admission.in_flight == 16 * CHUNK + 3)
        release.set()
        order = [piped.recv() for _ in range(4)]
        assert all(r["status"] == "ok" for r in order)
        assert [r["id"] for r in order] == ["web-0", "web-1", "web-2", "bulk"]
        # No head-of-line blocking: the lanes alternate, so ahead of the
        # i-th web request ran one bulk chunk per web request up to it
        # and the web requests before it -- never the backlog.
        assert [r["sched_delay"] for r in order[:3]] == [
            (i + 1) * CHUNK + i for i in range(3)
        ]
        piped.close()


class TestLifecycle:
    def test_stop_drains_queued_chunks(self, engine):
        async def go():
            async with AsyncEngine(engine) as ae:
                server = SILCServer(ae, scheduler=FairScheduler(chunk_size=CHUNK))
                await server.start()
                task = asyncio.create_task(server.submit(Request(
                    id=1, client="bulk", kind="knn_batch",
                    queries=tuple(range(5 * CHUNK)), k=2,
                )))
                await asyncio.sleep(0)  # admitted, five chunks queued
                assert len(server.scheduler) == 5
                await server.stop()
                assert task.done() and len(server.scheduler) == 0
                return task.result()

        response = asyncio.run(go())
        assert response.status == "ok"
        assert len(response.result["ids"]) == 5 * CHUNK

    def test_cancelled_request_returns_its_admission_budget(self, engine):
        async def go():
            async with AsyncEngine(engine) as ae:
                server = SILCServer(ae, scheduler=FairScheduler(chunk_size=CHUNK))
                async with server:
                    task = asyncio.create_task(server.submit(Request(
                        id=1, client="bulk", kind="knn_batch",
                        queries=tuple(range(5 * CHUNK)), k=2,
                    )))
                    await asyncio.sleep(0)
                    assert server.admission.in_flight == 5 * CHUNK
                    task.cancel()
                    with pytest.raises(asyncio.CancelledError):
                        await task
                    assert server.admission.in_flight == 0
                # the dispatcher dropped the orphaned chunks and retired
                assert len(server.scheduler) == 0

        asyncio.run(go())

    def test_answered_requests_are_not_retained(self, engine, piped_serve):
        """A long-lived server holds only the requests still in flight."""
        def live_tasks():
            gc.collect()
            return sum(isinstance(o, asyncio.Task) for o in gc.get_objects())

        piped = piped_serve(AsyncEngine(engine))
        assert piped.ask(knn(0, 0))["status"] == "ok"
        before = live_tasks()
        for i in range(1, 40):
            assert piped.ask(knn(i, i))["status"] == "ok"
        # (a request's task may still be retiring when its reply is read)
        assert live_tasks() <= before + 1
        assert piped.close().served == 40

    def test_a_failing_handler_surfaces_before_eof(self, engine, piped_serve):
        piped = piped_serve(AsyncEngine(engine))
        assert piped.ask(knn(1, 0))["status"] == "ok"
        piped.hang_up()
        piped.send(knn(2, 5))  # its reply has nowhere to go
        assert piped.returned.wait(piped.TIMEOUT), "still waiting for EOF"
        assert isinstance(piped.error, BrokenPipeError)
        piped.close()  # the request pipe was open all along


class TestTracing:
    def test_traced_and_untraced_replies_equal(self, engine, piped_serve):
        plain = piped_serve(AsyncEngine(engine))
        untraced = [answer(plain.ask(r)) for r in FOUR_KINDS]
        plain.close()
        tracer = Tracer()
        traced_serve = piped_serve(AsyncEngine(engine), tracer=tracer)
        traced = [answer(traced_serve.ask(r)) for r in FOUR_KINDS]
        traced_serve.close()
        assert traced == untraced
        assert tracer.finished == 4

    def test_stats_sent_after_the_replies_sees_their_traces(
        self, engine, piped_serve
    ):
        """``stats`` bypasses the scheduler, so what it reports depends
        on when it is read; a client that wants the finished traces in
        it asks after it has the replies."""
        piped = piped_serve(AsyncEngine(engine), tracer=Tracer())
        for i, query in enumerate([0, 5, 37]):
            assert piped.ask(knn(i, query))["status"] == "ok"
        metrics = piped.ask({"id": 99, "client": "ops", "kind": "stats"})["metrics"]
        counters = {
            (c["name"], tuple(sorted(c["labels"].items()))): c["value"]
            for c in metrics["counters"]
        }
        traces = [v for (name, _), v in counters.items() if name == "traces_total"]
        assert sum(traces) == 3
        assert any(name == "requests_total" for name, _ in counters)
        piped.close()
