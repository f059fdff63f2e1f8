"""`serve_jsonl` over real pipes: the behaviour the front end keeps.

The client is the test thread (see ``conftest.PipedServe``): it can
wait for a reply before it sends the next line, which a request file
cannot, so nothing here depends on how fast the server reads its input
relative to the first query.
"""

import asyncio
import gc
import io
import itertools
import json
import random
import sys
import threading
import time
from functools import partial

import pytest

from test_properties import one_way

from repro.datasets import random_vertex_objects
from repro.engine import QueryEngine
from repro.faults import FaultInjector
from repro.network import distance_matrix
from repro.objects import ObjectIndex
from repro.obs import Tracer
from repro.oracle import CostConstants, QueryPlanner
from repro.query.bestfirst import VARIANTS
from repro.serve import (
    AdmissionController,
    AsyncEngine,
    FairScheduler,
    Request,
    SILCServer,
    request_from_dict,
    response_to_dict,
    serve_jsonl,
)
from repro.silc import SILCIndex

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


class Gate:
    """Counts an engine's hand-offs and, while closed, parks each call
    at the hand-off, so a test decides what queues up behind the chunk
    the server has in flight.  :meth:`open` runs what was parked on the
    loop's thread, whichever thread opens.  (The server always passes
    ``done``: a parked call returns no future.)"""

    def __init__(self, async_engine):
        self.handed = 0
        self.closed = False
        self._parked = []
        self._loop = None
        run = async_engine._run

        def gated(done, fn, *args, **kwargs):
            try:
                if not self.closed:
                    return run(done, fn, *args, **kwargs)
                self._loop = asyncio.get_running_loop()
                self._parked.append(partial(run, done, fn, *args, **kwargs))
            finally:
                self.handed += 1  # counted once the call is run or parked

        async_engine._run = gated

    def close(self):
        self.closed = True

    def open(self):
        self.closed = False
        parked, self._parked = self._parked, []
        for call in parked:
            self._loop.call_soon_threadsafe(call)


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
        for rid, (record, error) in enumerate([
            ({"kind": "knn"}, "missing field 'query'"),
            ({"kind": "path", "source": 0}, "missing field 'target'"),
            ({"kind": "knn_batch", "queries": 5}, "queries must be a list of vertex ids"),
            ({"kind": "knn_batch", "queries": {"0": 1}}, "queries must be a list of vertex ids"),
        ], start=7):
            assert piped.ask({"id": rid, "client": "web", **record}) == {
                "id": rid, "client": "web", "status": "error",
                "error": f"bad request: {error}",
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

    def test_a_line_the_decoder_chokes_on_is_one_bad_request_not_a_crash(
        self, engine, piped_serve
    ):
        """``int(Infinity)`` is an ``OverflowError`` and a very deep line
        a ``RecursionError``: neither is a ``ValueError``, and either
        used to end the process, and every other client's requests."""
        piped = piped_serve(AsyncEngine(engine))
        for number in ("Infinity", "1e400", "2.7", "true"):
            assert piped.ask(
                '{"id": 1, "client": "web", "kind": "knn", "query": 0, "k": %s}' % number
            ) == {
                "id": 1, "client": "web", "status": "error",
                "error": "bad request: k must be an integer >= 1, got %s"
                         % {"Infinity": "inf", "1e400": "inf", "true": "True"}.get(number, number),
            }
        deep = piped.ask("[" * 100_000)
        assert deep["status"] == "error" and deep["error"].startswith("bad request: ")
        assert piped.ask(
            '{"id": 2, "kind": "knn", "query": 0, "deadline": true}'
        )["error"] == "bad request: deadline must be a positive budget in seconds"
        assert piped.ask(knn(3, 0))["status"] == "ok"  # ... and the loop carried on
        snapshot = piped.close()
        assert (snapshot.served, snapshot.failed) == (1, 0)

    @pytest.mark.parametrize("shards", [1, 2], ids=["unsharded", "shards-2"])
    def test_a_vertex_id_that_is_no_integer_is_a_bad_request(
        self, engine, piped_serve, shards
    ):
        """Vertex ids are validated like ``k``, on both tiers alike: a
        bool is not read as 0 or 1, nor a float or a string handed to
        the engine to fail with an internal ``TypeError`` counted as a
        failed request.  An integer the network lacks is the engine's
        ``VertexNotFound``."""
        piped = piped_serve(AsyncEngine(engine, shards=shards))
        for rid, (record, name, shown) in enumerate([
            ({"kind": "distance", "source": True, "target": 5}, "source", "True"),
            ({"kind": "knn_batch", "queries": [1, False], "k": 2}, "queries[1]", "False"),
            ({"kind": "distance", "source": 2.0, "target": 5}, "source", "2.0"),
            ({"kind": "path", "source": "3", "target": 5}, "source", "'3'"),
            ({"kind": "path", "source": 3, "target": None}, "target", "None"),
            ({"kind": "knn", "query": 4.5, "k": 2}, "query", "4.5"),
            ({"kind": "knn", "query": [0, 1, 0.5], "k": 2}, "query", "[0, 1, 0.5]"),
        ]):
            assert piped.ask({"id": rid, "client": "web", **record}) == {
                "id": rid, "client": "web", "status": "error",
                "error": f"bad request: {name} must be an integer vertex id, got {shown}",
            }
        missing = piped.ask(batch(9, [1, 10_000]))
        assert missing["status"] == "error"
        assert missing["error"].startswith("VertexNotFound")
        assert piped.ask(knn(10, 1))["status"] == "ok"
        snapshot = piped.close()
        assert (snapshot.served, snapshot.failed) == (1, 1)

    @pytest.mark.parametrize("shards", [1, 2], ids=["unsharded", "shards-2"])
    def test_a_vertex_the_network_lacks_is_named_unquoted(
        self, engine, piped_serve, small_net, shards
    ):
        """``VertexNotFound`` is a ``KeyError``, whose ``str`` quotes its
        message; the wire carries the message as the CLI prints it, from
        the server's own engine and from a shard worker alike."""
        n = small_net.num_vertices
        piped = piped_serve(AsyncEngine(engine, shards=shards))
        for rid, (record, vertex) in enumerate([
            ({"kind": "knn", "query": -1, "k": 2}, -1),
            ({"kind": "path", "source": 0, "target": n}, n),
        ]):
            assert piped.ask({"id": rid, "client": "web", **record}) == {
                "id": rid, "client": "web", "status": "error",
                "error": f"VertexNotFound: vertex {vertex} not in [0, {n})",
            }
        piped.close()

    @pytest.mark.parametrize("oracle", ["auto", "silc"])
    def test_a_bad_exact_variant_or_oracle_is_a_bad_request(
        self, small_index, small_object_index, piped_serve, oracle
    ):
        """``exact``, ``variant`` and ``oracle`` are checked on the wire,
        whatever backend would run the query: under ``--oracle auto`` the
        planner's pick (INE here) ignores the variant, and ``"exact":
        "no"`` used to be read as true."""
        engine = QueryEngine(small_index, small_object_index, oracle=oracle)
        engine.planner = QueryPlanner(engine.oracles, constants=CostConstants(
            op_model={"silc": (100.0, 1.0), "ine": (1.0, 1.0)},
            op_seconds={"silc": 1e-6, "ine": 1e-6},
        ))
        piped = piped_serve(AsyncEngine(engine))
        for rid, (field, value, error) in enumerate([
            ("exact", "no", "exact must be true or false, got 'no'"),
            ("exact", 1, "exact must be true or false, got 1"),
            ("variant", "bogus", "variant must be one of %s, got 'bogus'" % (VARIANTS,)),
            ("variant", 7, "variant must be one of %s, got 7" % (VARIANTS,)),
            ("oracle", 7, "oracle must be a string, got 7"),
        ]):
            for record in (knn(rid, 5, **{field: value}), {**batch(rid, [1, 2]), field: value}):
                assert piped.ask(record) == {
                    "id": rid, "client": record["client"], "status": "error",
                    "error": f"bad request: {error}",
                }
        # path and distance take no variant; exact true / false is served
        assert piped.ask({**FOUR_KINDS[3], "variant": "bogus"})["status"] == "ok"
        for rid, exact in ((20, True), (21, False)):
            assert piped.ask(knn(rid, 5, exact=exact, variant="knn_m"))["status"] == "ok"
        snapshot = piped.close()
        assert (snapshot.served, snapshot.failed) == (3, 0)
        if oracle == "auto":
            assert engine.planner.registry.counter_value(
                "planner_decisions_total", stage="plan", oracle="ine") == 2

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
        """Lines split across reads of the pipe at whatever points the
        writes and the scheduler left them; a lost or doubled line would
        show as a missing or repeated id."""
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


def request_line(rid, client="web"):
    return json.dumps(knn(rid, 5 * rid, client=client), ensure_ascii=False).encode()


#: Input bytes as the pipe delivers them, one write each; a write after
#: the first goes out once the replies to the lines complete before it
#: are read, so the server has read the first write on its own.
FRAMINGS = {
    "line-split-across-writes": [
        request_line(1) + b"\n" + request_line(2)[:20],
        request_line(2)[20:] + b"\n",
    ],
    "utf8-character-split-across-reads": [
        request_line(1) + b"\n" + request_line(2, client="w\u00e9b").partition(b"\xa9")[0],
        b"\xa9" + request_line(2, client="w\u00e9b").partition(b"\xa9")[2] + b"\n",
    ],
    "last-line-without-newline": [request_line(1) + b"\n" + request_line(2)],
    "crlf": [request_line(1) + b"\r\n" + request_line(2) + b"\r\n"],
    "blank-and-comment-lines": [
        b"\n   \r\n# a comment\n" + request_line(1) + b"\n\n\t\n#"
        + request_line(9) + b"\n" + request_line(2) + b"\n# the end",
    ],
}


class TestFraming:
    """The pipe reader splits lines as the ``--input FILE`` reader does,
    wherever the writes cut them."""

    @pytest.mark.parametrize("framing", sorted(FRAMINGS))
    def test_pipe_replies_equal_the_input_file_replies(
        self, engine, piped_serve, tmp_path, framing
    ):
        writes = FRAMINGS[framing]
        piped = piped_serve(AsyncEngine(engine))
        replies = []
        for data in writes[:-1]:
            piped.send_bytes(data)
            replies.append(piped.recv())
        piped.send_bytes(writes[-1])
        piped.end_input()
        replies += [piped.recv() for _ in range(2 - len(replies))]
        assert piped.close().served == 2

        path = tmp_path / "requests.jsonl"
        path.write_bytes(b"".join(writes))
        out_stream = io.StringIO()

        async def from_file():
            async with AsyncEngine(engine) as ae:
                with open(path, "rb") as in_stream:
                    return await serve_jsonl(SILCServer(ae), in_stream, out_stream)

        assert asyncio.run(from_file()).served == 2
        from_file_replies = [json.loads(line) for line in out_stream.getvalue().splitlines()]
        assert [answer(r) for r in replies] == [answer(r) for r in from_file_replies]
        assert [r["id"] for r in replies] == [1, 2]
        assert all(r["status"] == "ok" for r in replies)
        if framing.startswith("utf8"):
            assert replies[1]["client"] == "w\u00e9b"


class TestPolicies:
    def test_rejected_under_the_in_flight_cap(self, engine, piped_serve):
        async_engine = AsyncEngine(engine)
        gate = Gate(async_engine)
        piped = piped_serve(async_engine, admission=AdmissionController(max_in_flight=10))
        too_large = piped.ask(batch(1, range(50)))
        assert too_large["status"] == "rejected"
        assert too_large["reason"] == "request_too_large"
        # Each fits alone, not both at once: the first is parked at the
        # hand-off until the second has been turned away.
        gate.close()
        piped.send(batch(2, range(8)), batch(3, range(8)))
        rejected = piped.recv()
        assert (rejected["id"], rejected["status"]) == (3, "rejected")
        assert rejected["reason"] == "in_flight_cap"
        assert rejected["retry_after"] > 0
        gate.open()
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
        async_engine = AsyncEngine(engine)
        gate = Gate(async_engine)
        piped = piped_serve(async_engine, scheduler=FairScheduler(chunk_size=CHUNK))
        bulk = batch("bulk", range(16 * CHUNK))
        web = [knn(f"web-{i}", 10 * i) for i in range(3)]
        # The bulk request's first chunk is parked at the hand-off until
        # all three web requests are queued behind its other fifteen.
        # The web lines go out only once that chunk is dispatched: one
        # of them queued before it and the rest after reads [4, 5, 10].
        gate.close()
        piped.send(bulk)
        wait_until(lambda: piped.server.scheduler.dispatched == CHUNK)
        piped.send(*web)
        wait_until(lambda: piped.server.admission.in_flight == 16 * CHUNK + 3)
        gate.open()
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


    def test_a_stats_line_waits_for_at_most_the_chunk_that_is_running(
        self, engine, piped_serve
    ):
        """The stats line arrives while the first chunk of a three-chunk
        batch runs (the engine call holds the loop until it is written):
        it is read and answered before the next chunk is picked, with
        two chunks still queued."""
        async_engine = AsyncEngine(engine)
        running, written = threading.Event(), threading.Event()
        run = async_engine._run

        def first_call_waits(done, fn, *args, **kwargs):
            if not running.is_set():
                running.set()
                assert written.wait(TIMEOUT)
            return run(done, fn, *args, **kwargs)

        async_engine._run = first_call_waits
        piped = piped_serve(async_engine, scheduler=FairScheduler(chunk_size=CHUNK))
        piped.send(batch(1, range(3 * CHUNK)))
        assert running.wait(TIMEOUT)
        piped.send({"id": 2, "client": "ops", "kind": "stats"})
        written.set()
        stats, answered = piped.recv(), piped.recv()
        assert (stats["id"], answered["id"], answered["status"]) == (2, 1, "ok")
        depths = {
            g["labels"]["client"]: g["value"]
            for g in stats["metrics"]["gauges"] if g["name"] == "queue_depth"
        }
        assert depths == {"bulk": 2 * CHUNK}
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


    def test_a_reply_that_fails_after_eof_still_surfaces(self, engine):
        """EOF has been read, the last request is still running, and its
        reply cannot be written: ``serve_jsonl`` raises, it does not
        return a snapshot as if the client had been answered."""
        class FullAfterOne(io.StringIO):
            def write(self, text):
                if self.getvalue():
                    raise OSError(28, "No space left on device")
                return super().write(text)

        lines = "".join(json.dumps(knn(i, i)) + "\n" for i in range(3))

        async def go():
            async with AsyncEngine(engine) as ae:
                await serve_jsonl(SILCServer(ae), io.StringIO(lines), FullAfterOne())

        with pytest.raises(OSError, match="No space left"):
            asyncio.run(go())

    def test_a_failing_completion_callback_is_logged_once_and_the_pump_goes_on(
        self, engine
    ):
        """The callback is the caller's; the next request is not."""
        reported = []

        def broken(response):
            raise LookupError(f"cannot deliver {response.id}")

        async def go():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: reported.append(context)
            )
            async with AsyncEngine(engine) as ae, SILCServer(ae) as server:
                server.submit_nowait(Request(id=1, client="a", kind="knn", queries=(0,)), broken)
                answered = await server.submit(
                    Request(id=2, client="a", kind="knn", queries=(5,))
                )
                return answered, server.snapshot()

        answered, snapshot = asyncio.run(go())
        assert answered.status == "ok"
        assert [str(c["exception"]) for c in reported] == ["cannot deliver 1"]
        # request 1 ran and was accounted for; only its hand-over failed
        assert (snapshot.served, snapshot.in_flight) == (2, 0)


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


# ----------------------------------------------------------------------
# Generated parity: two entry points, one path, Dijkstra's answers
# ----------------------------------------------------------------------

BURST = 8
CAP = 64  # admission's in-flight cap for the generated run


def generated_bursts(seed, num_vertices):
    """200 seeded requests in bursts of ``BURST``: the four kinds, two
    clients, every variant, and planted among them a batch that spans
    three chunks, a deadline that is spent at dispatch (the run's clock
    jumps a second per reading), generous ones, and a batch the
    admission cap can never fit."""
    rng = random.Random(seed)

    def vertex():
        return rng.randrange(num_vertices)

    requests = []
    for rid in range(200):
        base = {"id": rid, "client": rng.choice(("web", "bulk"))}
        kind = rng.choice(("knn", "knn", "knn_batch", "path", "distance"))
        if kind == "knn":
            base |= {"kind": kind, "query": vertex(), "k": rng.randint(1, 6),
                     "variant": rng.choice(("knn", "inn", "knn_i", "knn_m"))}
        elif kind == "knn_batch":
            base |= {"kind": kind, "k": rng.randint(1, 4),
                     "queries": [vertex() for _ in range(rng.randint(1, 6))]}
        else:
            base |= {"kind": kind, "source": vertex(), "target": vertex()}
        if rng.random() < 0.1:
            base["deadline"] = 1e6
        requests.append(base)
    planted = rng.sample(range(200), 3)
    requests[planted[0]] = batch(planted[0], [vertex() for _ in range(2 * CHUNK + 2)])
    requests[planted[1]] = knn(planted[1], vertex(), deadline=0.5)
    requests[planted[2]] = batch(planted[2], [vertex() for _ in range(CAP + 6)])
    return [requests[i:i + BURST] for i in range(0, 200, BURST)]


def opener(j):
    """Sent ahead of burst ``j`` and parked at the hand-off while the burst
    queues up behind it: what the scheduler then picks among is the
    whole burst, whichever way and however fast it arrived."""
    return {"id": f"open-{j}", "client": "web", "kind": "distance", "source": 0, "target": 1}


def server_options(traced):
    ticks = itertools.count()
    return {
        "scheduler": FairScheduler(chunk_size=CHUNK),
        "admission": AdmissionController(max_in_flight=CAP),
        "clock": lambda: float(next(ticks)),
        "tracer": Tracer() if traced else None,
    }


def through_submit(engine, shards, traced, bursts):
    """Every burst through ``await server.submit``; replies by id."""
    async def go():
        replies = {}
        async with AsyncEngine(engine, shards=shards) as ae:
            gate = Gate(ae)
            async with SILCServer(ae, **server_options(traced)) as server:
                for j, burst in enumerate(bursts):
                    gate.close()
                    before = gate.handed
                    tasks = [asyncio.create_task(server.submit(request_from_dict(opener(j))))]
                    while gate.handed == before:
                        await asyncio.sleep(0)
                    tasks += [
                        asyncio.create_task(server.submit(request_from_dict(r))) for r in burst
                    ]
                    await asyncio.sleep(0)  # every one of them submitted
                    gate.open()
                    for response in await asyncio.wait_for(asyncio.gather(*tasks), TIMEOUT):
                        replies[response.id] = json.loads(json.dumps(response_to_dict(response)))
        return replies

    return asyncio.run(go())


def through_pipes(piped_serve, engine, shards, traced, bursts):
    """The same bursts as lines through ``serve_jsonl``; replies by id."""
    ae = AsyncEngine(engine, shards=shards)
    gate = Gate(ae)
    piped = piped_serve(ae, **server_options(traced))
    accepted = []
    submit_nowait = piped.server.submit_nowait
    piped.server.submit_nowait = lambda request, deliver: (
        accepted.append(request.id), submit_nowait(request, deliver)
    )[1]
    replies = {}
    for j, burst in enumerate(bursts):
        gate.close()
        before = gate.handed
        piped.send(opener(j))
        wait_until(lambda: gate.handed > before)
        piped.send(*burst)
        wait_until(lambda: accepted[-1] == burst[-1]["id"])
        gate.open()
        for _ in range(len(burst) + 1):
            reply = piped.recv()
            replies[reply["id"]] = reply
    piped.close()
    return replies


def assert_dijkstra(net, dist, objects, request, reply):
    """An ``ok`` reply carries the answer plain Dijkstra gives."""
    def neighbours(query, ids, distances):
        want = sorted(float(dist[query, o.position.vertex]) for o in objects)[:request["k"]]
        assert len(set(ids)) == len(ids) == len(want)
        for oid, distance in zip(ids, distances):
            assert distance == pytest.approx(dist[query, objects[oid].position.vertex], rel=1e-9)
        assert sorted(distances) == pytest.approx(want, rel=1e-9)

    if request["kind"] == "knn":
        neighbours(request["query"], reply["ids"], reply["distances"])
    elif request["kind"] == "knn_batch":
        assert len(reply["ids"]) == len(reply["distances"]) == len(request["queries"])
        for query, ids, distances in zip(request["queries"], reply["ids"], reply["distances"]):
            neighbours(query, ids, distances)
    else:
        source, target = request["source"], request["target"]
        assert reply["distance"] == pytest.approx(dist[source, target], rel=1e-9, abs=1e-12)
        if request["kind"] == "path":
            path = reply["path"]
            assert (path[0], path[-1]) == (source, target)
            assert sum(net.edge_weight(a, b) for a, b in zip(path, path[1:])) == pytest.approx(
                dist[source, target], rel=1e-9, abs=1e-12
            )


def assert_one_path(piped_serve, engine, dist, shards, traced):
    """The generated bursts through both entry points: equal replies and
    equal counted ``sched_delay`` by id, and every ``ok`` reply is the
    answer Dijkstra gives on the engine's network."""
    net = engine.index.network
    objects = engine.object_index.objects
    bursts = generated_bursts(21, net.num_vertices)
    awaited = through_submit(engine, shards, traced, bursts)
    piped = through_pipes(piped_serve, engine, shards, traced, bursts)
    assert awaited.keys() == piped.keys() and len(awaited) == 200 + len(bursts)
    for rid, reply in piped.items():
        assert answer(reply) == answer(awaited[rid])
        assert reply.get("sched_delay") == awaited[rid].get("sched_delay")
    requests = {r["id"]: r for burst in bursts for r in burst}
    for rid, request in requests.items():
        if piped[rid]["status"] == "ok":
            assert_dijkstra(net, dist, objects, request, piped[rid])
    # the planted cases met their fate, and the rest was answered
    statuses = [piped[rid]["status"] for rid in requests]
    assert statuses.count("expired") == 1 and "error" not in statuses
    assert "request_too_large" in {r.get("reason") for r in piped.values()}
    assert statuses.count("ok") >= 190
    assert len({piped[rid]["sched_delay"] for rid in requests if "sched_delay" in piped[rid]}) > 3


@pytest.mark.parametrize("shards", [1, 2], ids=["unsharded", "shards-2"])
@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_submit_and_serve_jsonl_are_one_path(engine, piped_serve, small_dist, shards, traced):
    assert_one_path(piped_serve, engine, small_dist, shards, traced)


@pytest.fixture(scope="module")
def one_way_serving(small_net):
    """``small_net`` with a seeded quarter of its streets one-way, its
    index and objects, and its all-pairs (directed) Dijkstra truth."""
    net = one_way(small_net, seed=9)
    index = SILCIndex.build(net)
    objects = ObjectIndex(net, random_vertex_objects(net, count=20, seed=4), index.embedding)
    return QueryEngine(index, objects, cache_fraction=0.05), distance_matrix(net)


@pytest.mark.parametrize("shards", [1, 2], ids=["unsharded", "shards-2"])
def test_submit_and_serve_jsonl_are_one_path_on_a_directed_network(
    one_way_serving, piped_serve, small_net, shards
):
    """The same bursts on a network where d(u, v) != d(v, u): a reply
    that swapped source and target, or searched the reverse graph,
    fails the directed Dijkstra check.  (Disconnected networks are out
    of scope: ``SILCIndex.build``, and so ``repro build``, refuses a
    network that is not strongly connected.)"""
    engine, dist = one_way_serving
    assert engine.index.network.num_edges < small_net.num_edges and (dist != dist.T).any()
    assert_one_path(piped_serve, engine, dist, shards, traced=False)


def test_a_reply_is_the_same_for_every_shard_count(engine):
    """``exact: false`` (distances are bounds, not refined) and kNN-M's
    confirmation order mean the same unsharded, on 2 shards and on 4
    shards whose serving workers are killed on a seeded schedule: every
    reply equal, byte for byte but ``latency``."""
    rng = random.Random(37)
    requests = [
        {"id": rid, "kind": "knn", "query": rng.randrange(engine.index.network.num_vertices),
         "k": rng.choice((5, 10, 25)), "variant": rng.choice(VARIANTS), "exact": rng.random() < 0.5}
        for rid in range(80)
    ]
    # One client is served by slot 0 until its slot fails over; the
    # ordinals count sends, replays included.
    injector = FaultInjector()
    for nth in sorted(rng.sample(range(1, 80), 3)):
        injector.kill_worker_at(0, nth)

    async def replies(shards, fault_injector=None):
        async with AsyncEngine(
            engine, shards=shards, fault_injector=fault_injector
        ) as ae, SILCServer(ae) as server:
            return [
                answer(response_to_dict(await server.submit(request_from_dict(r))))
                for r in requests
            ]

    unsharded = asyncio.run(replies(1))
    assert {r["status"] for r in unsharded} == {"ok"}
    assert asyncio.run(replies(2)) == unsharded
    assert asyncio.run(replies(4, injector)) == unsharded
    assert injector.fired("worker_kill") == 3
    refined = [
        engine.knn(q["query"], q["k"], variant=q["variant"], exact=True).distances()
        for q in requests if not q["exact"]
    ]
    bounds = [r["distances"] for r, q in zip(unsharded, requests) if not q["exact"]]
    assert sum(b != d for b, d in zip(bounds, refined)) > len(bounds) // 2
