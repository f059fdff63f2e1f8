"""Counted tripwires for the fixed cost of a served request.

Sibling of ``tests/test_kernel_budget.py``: wall-clock says nothing
reliable in a unit test, counts do.  Three things are pinned here:

* **hops** -- one ``AsyncEngine`` hand-off per ``knn`` / ``distance`` /
  ``path`` request and one per ``knn_batch`` chunk, one event-loop turn
  per closed-loop request (the turn that reads its line) and one per
  batch chunk, no task per request, and no serving thread at all: no
  executor, reader, worker or respawn thread while serving or after
  EOF, a shard worker's respawn included; a reply that fails on its way
  out is reported once and settled once;
* **``SILCIndex.route``** -- bitwise ``(path(), distance())`` from one
  walk, with the checks of both kept;
* **INE** -- golden digests of answers and every counted operation,
  recorded at the commit *before* the per-query scans of the object set
  moved into ``ObjectIndex`` (re-record with ``PYTHONPATH=src python
  tests/test_serve_budget.py`` only for a change meant to move them).
"""

from __future__ import annotations

import asyncio
import hashlib
import io
import json
import selectors
import sys
import threading
import time

import numpy as np
import pytest
import test_kernel_parity as kernel_parity

from repro.datasets import random_vertex_objects
from repro.engine import QueryEngine
from repro.faults import FaultInjector
from repro.network.errors import VertexNotFound
from repro.network import grid_network, road_like_network, shortest_path
from repro.objects.model import EdgePosition, ObjectSet, position_parts
from repro.objects import ObjectIndex
from repro.obs import JsonlTraceSink, Tracer, format_trace_report, load_trace_file
from repro.obs.report import aggregate_stages
from repro.oracle import CostConstants, PrunedLabellingOracle, QueryPlanner
from repro.oracle.silc import INEOracle, SILCOracle
from repro.query.ine import ine_knn
from repro.query.location import same_edge_direct
from repro.serve import AsyncEngine, FairScheduler, Request, SILCServer, serve_jsonl
from repro.shard import ShardGroup
from repro.silc import SILCIndex
from repro.silc.refinement import next_hop_cycle
from repro.storage import NetworkStorageModel
from reference import objects_on_edges, out_rank, random_edge_objects

# ----------------------------------------------------------------------
# Hops per request
# ----------------------------------------------------------------------

CHUNK = 4


def _count_hand_offs(async_engine) -> list:
    """Wrap the engine's one hand-off so every call is recorded."""
    handed = []
    run = async_engine._run

    def counting_run(done, fn, *args, **kwargs):
        handed.append(fn)
        return run(done, fn, *args, **kwargs)

    async_engine._run = counting_run
    return handed


def _count_calls(monkeypatch, name) -> list:
    """Count calls of ``asyncio.BaseEventLoop.<name>`` on any loop."""
    calls = []
    real = getattr(asyncio.BaseEventLoop, name)

    def counting(self, *args, **kwargs):
        calls.append(name)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(asyncio.BaseEventLoop, name, counting)
    return calls


def test_one_executor_trip_per_request_and_per_batch_chunk(
    small_index, small_object_index, piped_serve, monkeypatch
):
    """(The id dates from when the hand-off was an executor submission;
    a trip is now one ``AsyncEngine._run``: the call inline, its
    outcome delivered a loop turn later.)"""
    engine = QueryEngine(small_index, small_object_index)
    async_engine = AsyncEngine(engine)
    handed = _count_hand_offs(async_engine)
    piped = piped_serve(async_engine, scheduler=FairScheduler(chunk_size=CHUNK))
    requests = [
        ({"id": 1, "kind": "knn", "query": 7, "k": 3}, 1),
        ({"id": 2, "kind": "distance", "source": 0, "target": 140}, 1),
        ({"id": 3, "kind": "path", "source": 0, "target": 140}, 1),
        ({"id": 4, "kind": "knn_batch", "queries": list(range(10)), "k": 2}, 3),
        ({"id": 5, "kind": "stats"}, 0),
    ]
    for request, trips in requests:
        before = len(handed)
        assert piped.ask(request)["status"] == "ok"
        assert len(handed) - before == trips, request["kind"]
    # Loop turns per closed-loop request: the turn that reads the line
    # admits it, runs it and writes the reply (1.0 measured; 3.0 with
    # the pump and the reply each a turn later, 6.9 with a task per
    # request and a dispatcher task).  A batch of c chunks takes c: each
    # chunk after the first waits a turn.  The loop may or may not have
    # entered the next turn's select() when a reply is read, hence a
    # mean over a run and not a count per request.
    turns = _count_calls(monkeypatch, "_run_once")
    tasks = _count_calls(monkeypatch, "create_task")
    rounds = 20
    for request, trips in requests[:4]:
        before = len(turns)
        for _ in range(rounds):
            assert piped.ask(request)["status"] == "ok"
        assert (len(turns) - before) / rounds < trips + 0.5, request["kind"]
    assert not tasks  # no task per request (nor a dispatcher's)
    # The loop reads, queries and writes on its own thread: there is no
    # reader or worker thread, and nothing went through an executor (the
    # loop's default one names its threads asyncio_N).
    names = [t.name for t in threading.enumerate()]
    assert not [n for n in names if n.startswith(("asyncio_", "ThreadPoolExecutor"))]
    assert not [n for n in names if n.startswith("repro-serve")]
    piped.close()
    assert not [t.name for t in threading.enumerate() if t.name.startswith("repro-serve")]


class _RaisingSink:
    """A trace sink whose every write fails, as a full disk would."""

    def write(self, record):
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("failing", ["deliver", "trace-sink"])
def test_a_reply_that_fails_on_the_way_out_is_reported_once_and_settled_once(
    small_index, small_object_index, failing
):
    """The reply is handed over inside the call that ran the query, so
    what raises on its way out -- the caller's callback, or before it
    the trace sink -- is reported once through the loop's exception
    handler and is not taken for a failed dispatch: admission is
    released once per request, the request is counted, and the next
    one is served.  The last is answered ``Expired`` by the pump
    itself, which must not be cut short either."""
    reported, released = [], []

    def broken(response):
        raise LookupError(f"cannot deliver {response.id}")

    requests = [
        Request(id=1, client="web", kind="knn", queries=(7,), k=3),
        Request(id=2, client="web", kind="distance", queries=(0, 140)),
        Request(id=3, client="web", kind="path", queries=(0, 140)),
        Request(id=4, client="bulk", kind="knn_batch", queries=tuple(range(2 * CHUNK)), k=2),
        Request(id=5, client="web", kind="knn", queries=(9,), deadline=1e-9),
    ]

    async def go():
        asyncio.get_running_loop().set_exception_handler(
            lambda _, context: reported.append(context["exception"])
        )
        tracer = Tracer(sink=_RaisingSink()) if failing == "trace-sink" else None
        engine = QueryEngine(small_index, small_object_index)
        async with AsyncEngine(engine) as ae:
            server = SILCServer(ae, scheduler=FairScheduler(chunk_size=CHUNK), tracer=tracer)
            await server.start()  # and stop() only once the pump is seen to go on
            release = server.admission.release
            server.admission.release = lambda r: (released.append(r.id), release(r))[1]
            for request in requests:
                server.submit_nowait(request, broken if failing == "deliver" else print)
            for _ in range(100):  # a wedged pump fails the test, it does not hang it
                await asyncio.sleep(0)
            assert sorted(released) == [1, 2, 3, 4, 5]
            if server.tracer is not None:
                server.tracer.sink = None
            last = await asyncio.wait_for(
                server.submit(Request(id=6, client="web", kind="knn", queries=(5,))), 30
            )
            await server.stop()
            return last, server.snapshot()

    last, snapshot = asyncio.run(go())
    assert last.status == "ok"
    assert [type(e) for e in reported] == [
        LookupError if failing == "deliver" else OSError
    ] * len(requests)
    assert released[-1] == 6
    assert (snapshot.served, snapshot.expired, snapshot.failed, snapshot.in_flight) == (5, 1, 0, 0)


def test_no_serving_thread_across_a_respawn(small_index, small_object_index):
    """Two shard workers, the serving one killed before its first
    request: the respawn and the replay run inline on the loop thread,
    so no thread starts -- sampled right after every shard visit, and
    after EOF."""
    before = set(threading.enumerate())
    injector = FaultInjector().kill_worker_at(0, 1)
    lines = "".join(
        json.dumps({"id": i, "kind": "knn", "query": q, "k": 3}) + "\n"
        for i, q in enumerate((7, 17, 42), start=1)
    )
    started = []

    async def serve() -> str:
        async with AsyncEngine(
            QueryEngine(small_index, small_object_index), shards=2, fault_injector=injector
        ) as async_engine:
            group = async_engine.shard_group
            visit = group.knn

            def sampled(*args, **kwargs):
                try:
                    return visit(*args, **kwargs)
                finally:
                    started.append(set(threading.enumerate()) - before)

            group.knn = sampled
            out = io.StringIO()
            await serve_jsonl(SILCServer(async_engine), io.BytesIO(lines.encode()), out)
            assert group.registry.counter_value(
                "fault_events_total", stage="shard", event="respawn"
            ) == 1
        return out.getvalue()

    replies = [json.loads(line) for line in asyncio.run(serve()).splitlines()]
    assert [r["status"] for r in replies] == ["ok"] * 3
    assert injector.fired("worker_kill") == 1
    assert started == [set()] * 3
    assert set(threading.enumerate()) - before == set()


# ----------------------------------------------------------------------
# Frames per closed-loop request outside the query
# ----------------------------------------------------------------------

#: Frames a closed-loop request enters on the loop thread outside its
#: query (the oracle's ``knn``, the index's ``distance`` / ``route`` and
#: all below them), untraced: at most these, event loop included ...
FRAME_BUDGETS = {"distance": 40, "path": 40, "knn k=1 silc": 50, "knn k=2 auto": 50}
#: ... and exactly these outside the event loop's own modules, counting
#: no comprehension (Python 3.12 inlines them).  Reading, decoding and
#: validating the line is 4 frames, admission and scheduling 7, the
#: engine 2 (``distance`` / ``route``) or 8 (``knn``; +3 with the
#: planner's reused pick, 1 of them the miss-rate read, which returns at
#: once without a page simulator),
#: the reply 6 (+2 building a kNN answer),
#: counting after it 2 (+1 summing a kNN's ops).  Before the cut,
#: ``distance`` entered 67 frames outside its query and ``knn`` at k = 2
#: under ``--oracle auto`` about 120.
FRAMES_OUTSIDE_THE_LOOP = {"distance": 23, "path": 23, "knn k=1 silc": 32, "knn k=2 auto": 35}

_LOOP_FILES = (asyncio.__file__.rsplit("/", 1)[0], selectors.__file__)
_COMPREHENSIONS = ("<listcomp>", "<dictcomp>", "<setcomp>")


def _query_entries() -> set:
    return {f.__code__ for f in (
        SILCOracle.knn, INEOracle.knn, PrunedLabellingOracle.knn, SILCIndex.distance, SILCIndex.route,
    )}


def _frames_outside_the_query(piped_serve, async_engine, requests) -> list[tuple[int, int]]:
    """``(frames, frames outside the loop's modules)`` outside the query,
    per closed-loop request over a real pipe, each request counted from
    the loop parked in ``select()`` to the loop parked again."""
    queries, counted = _query_entries(), [0, 0]

    def profiler(frame, event, arg):
        if event != "call":
            return
        code, above = frame.f_code, frame
        while above is not None:
            if above.f_code in queries:
                return
            above = above.f_back
        counted[0] += 1
        counted[1] += not (
            code.co_filename.startswith(_LOOP_FILES) or code.co_name in _COMPREHENSIONS
        )

    threading.setprofile(profiler)  # the loop thread starts under it
    try:
        piped = piped_serve(async_engine)
    finally:
        threading.setprofile(None)

    def parked() -> tuple[int, int]:
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            before = tuple(counted)
            time.sleep(0.002)
            frame = sys._current_frames().get(piped.thread.ident)
            if frame is not None and frame.f_code.co_filename == selectors.__file__:
                if tuple(counted) == before:
                    return before
        raise AssertionError("the loop thread never went quiet")

    counts = []
    try:
        for record in requests + requests:  # the first pass warms caches and the planner
            start = parked()
            assert piped.ask(record)["status"] == "ok", record
            end = parked()
            counts.append((end[0] - start[0], end[1] - start[1]))
    finally:
        piped.close()
    return counts[len(requests):]


def test_frames_outside_the_query_are_within_budget(
    small_net, small_index, small_object_index, piped_serve
):
    """The fixed cost of a served request, in frames: untraced, a request
    makes no tracing call, the planner reuses its pick for a ``k``, the
    reply is one C encoder call and the stats are summed after it."""
    silc = QueryEngine(small_index, small_object_index)
    auto = QueryEngine(
        small_index, small_object_index,
        labelling=PrunedLabellingOracle.build(small_net), oracle="auto",
    )
    # A fixed model (INE cheapest) instead of a wall-clock calibration.
    auto.planner = QueryPlanner(auto.oracles, constants=CostConstants(
        op_model={"silc": (50.0, 5.0), "labels": (50.0, 5.0), "ine": (1.0, 1.0)},
        op_seconds={"silc": 1e-6, "labels": 1e-6, "ine": 1e-6},
    ))
    rows = {
        "distance": (silc, {"id": 1, "kind": "distance", "source": 0, "target": 140}),
        "path": (silc, {"id": 2, "kind": "path", "source": 3, "target": 97}),
        "knn k=1 silc": (silc, {"id": 3, "kind": "knn", "query": 7, "k": 1}),
        "knn k=2 auto": (auto, {"id": 4, "kind": "knn", "query": 11, "k": 2}),
    }
    for row, (engine, record) in rows.items():
        counts = _frames_outside_the_query(piped_serve, AsyncEngine(engine), [record] * 3)
        assert len(set(counts)) == 1, (row, counts)  # it repeats exactly
        frames, outside_the_loop = counts[0]
        assert frames <= FRAME_BUDGETS[row], (row, frames)
        assert outside_the_loop == FRAMES_OUTSIDE_THE_LOOP[row], (row, outside_the_loop)
    assert auto.planner.registry.counter_value(
        "planner_decisions_total", stage="plan", oracle="ine") == 6


#: Frames the parent enters per untraced k = 10 shard visit, its own
#: included: the location check, the slot stack, one framed round trip
#: and the answer rebuilt (3 frames per neighbour).  It was 119 while
#: the pipe spoke ``multiprocessing.Connection``.
SHARD_VISIT_BUDGET = 60


def test_parent_frames_per_shard_visit_are_within_budget(small_index, small_object_index):
    """A visit pickles one frame, polls the pipe and the process
    sentinel registered at spawn (no selector built per call) and
    rebuilds the reply from flat bounds and counter values."""
    queries = (3, 17, 42, 88, 120)
    with ShardGroup.from_engine(QueryEngine(small_index, small_object_index), 2) as group:
        for q in queries:
            group.knn(q, 10)
        counts = []
        for q in queries:
            frames = [0]

            def profiler(frame, event, arg):
                frames[0] += event == "call"

            sys.setprofile(profiler)
            try:
                group.knn(q, 10)
            finally:
                sys.setprofile(None)
            counts.append(frames[0])
    assert len(set(counts)) == 1, counts  # it repeats exactly
    assert counts[0] <= SHARD_VISIT_BUDGET, counts


class _ReplyFirstSink:
    """A trace sink that notes which replies were out when each trace came in."""

    def __init__(self, out: io.StringIO) -> None:
        self.out = out
        self.seen = []

    def write(self, record):
        replied = {json.loads(line)["id"] for line in self.out.getvalue().splitlines()}
        self.seen.append((record["id"], record["id"] in replied))


def test_a_traced_reply_is_written_before_its_trace_reaches_the_sink(
    small_index, small_object_index
):
    lines = "".join(json.dumps(r) + "\n" for r in (
        {"id": 1, "kind": "knn", "query": 7, "k": 3},
        {"id": 2, "kind": "distance", "source": 0, "target": 140},
        {"id": 3, "kind": "knn_batch", "queries": list(range(2 * CHUNK)), "k": 2},
        {"id": 4, "kind": "knn", "query": 9, "deadline": 1e-9},
    ))
    out = io.StringIO()
    sink = _ReplyFirstSink(out)

    async def serve():
        async with AsyncEngine(QueryEngine(small_index, small_object_index)) as ae:
            server = SILCServer(ae, scheduler=FairScheduler(chunk_size=CHUNK), tracer=Tracer(sink=sink))
            return await serve_jsonl(server, io.BytesIO(lines.encode()), out)

    snapshot = asyncio.run(serve())
    assert (snapshot.served, snapshot.expired) == (3, 1)
    assert sorted(sink.seen) == [(1, True), (2, True), (3, True), (4, True)]


def test_read_and_reply_spans_cover_the_request_and_reach_the_report(
    small_index, small_object_index, tmp_path, piped_serve
):
    """A traced request's ``read`` span runs from the read that brought
    its line in to its admission, its ``reply`` span from the chunk's
    return to the flushed reply; ``repro trace-report`` aggregates both."""
    path = tmp_path / "traces.jsonl"
    tracer = Tracer(sink=JsonlTraceSink(path))
    piped = piped_serve(AsyncEngine(QueryEngine(small_index, small_object_index)), tracer=tracer)
    requests = [
        {"id": 1, "kind": "knn", "query": 7, "k": 3},
        {"id": 2, "kind": "distance", "source": 0, "target": 140},
        {"id": 3, "kind": "path", "source": 3, "target": 97},
    ]
    for record in requests:
        assert piped.ask(record)["status"] == "ok"
    piped.close()
    tracer.sink.close()
    traces = load_trace_file(path)
    assert [t["id"] for t in traces] == [1, 2, 3]
    for trace in traces:
        spans = {span["name"]: span for span in trace["spans"]}
        root, read, reply = spans["request"], spans["read"], spans["reply"]
        assert read["start"] == root["start"] == 0.0  # the request starts with its read
        assert read["end"] <= spans["admission"]["start"]
        assert spans["execute"]["end"] <= reply["start"] <= root["end"] <= reply["end"]
        assert read["parent"] == reply["parent"] == root["sid"]
    stages = aggregate_stages(traces)
    assert stages["read"]["count"] == stages["reply"]["count"] == len(requests)
    report = format_trace_report(traces)
    assert "\nread " in report and "\nreply " in report


# ----------------------------------------------------------------------
# route(): a walk along the network's edges, checked against Dijkstra
# ----------------------------------------------------------------------

def test_route_walks_network_edges_to_the_dijkstra_distance(
    small_net, small_index, small_dist
):
    """``path`` and ``distance`` are ``route``'s one walk, so neither is
    a check of the other: every step must be an edge, the steps' weights
    summed in walk order must be the distance to the bit, and that
    distance must be Dijkstra's."""
    rng = np.random.default_rng(3)
    pairs = rng.integers(0, small_net.num_vertices, size=(300, 2)).tolist()
    pairs += [(v, v) for v in (0, 17, 149)]
    for source, target in pairs:
        path, distance = small_index.route(source, target)
        assert path[0] == source and path[-1] == target
        walked = 0.0
        for u, v in zip(path, path[1:]):
            weights = [w for x, w in small_net.out_edges[u] if x == v]
            assert weights, (source, target, u, v)  # the step is an edge
            walked += min(weights)
        assert walked.hex() == distance.hex()
        np.testing.assert_allclose(distance, small_dist[source, target], rtol=1e-9)
    assert small_index.route(5, 5) == ([5], 0.0)


_far_pair = kernel_parity.TestChecksKept._far_pair
_corrupt = kernel_parity.TestChecksKept._corrupt


class TestRouteChecksKept:
    """``route`` refuses what ``path`` and ``distance`` refused."""

    @pytest.fixture()
    def index(self, grid_net):
        return SILCIndex.build(grid_net)  # private: the tests corrupt it

    def test_next_hop_cycle_raises_the_cycle_error(self, grid_net, index):
        source, hop, target = _far_pair(index)
        assert grid_net.has_edge(hop, source)
        _corrupt(index, hop, target, "colors", out_rank(grid_net, hop, source))  # source<->hop
        with pytest.raises(RuntimeError) as from_route:
            index.route(source, target)
        # The walk's guard: no simple path has more links than vertices.
        cycle = next_hop_cycle(source, target, grid_net.num_vertices)
        assert str(from_route.value) == str(cycle)

    @pytest.mark.parametrize("bad", [float("nan"), -1e4])
    def test_bad_lam_min_raises_distances_error(self, index, bad):
        """The walk itself reads no λ: the one it refuses is the first
        probe's, which builds the state's bounds."""
        source, _, target = _far_pair(index)
        _corrupt(index, source, target, "lam_min", bad)
        with pytest.raises(ValueError) as from_distance:
            index.distance(source, target)
        with pytest.raises(ValueError) as from_route:
            index.route(source, target)
        assert str(from_route.value) == str(from_distance.value)

    def test_unknown_vertex_rejected(self, index):
        with pytest.raises(VertexNotFound):
            index.route(0, 10_000)

    def test_path_pages_are_the_hop_by_hop_walks(self, grid_net, index):
        """``path`` is ``route``'s walk: under a simulator it probes the
        rows, and pages, that a walk of ``hop_and_interval`` from the
        source through each intermediate vertex probes -- one per link."""
        storage = index.make_storage()
        index.attach_storage(storage)
        pages: list[int] = []
        storage.access = pages.append
        for source, target in ((0, 63), (9, 54), (27, 27), (5, 6)):
            path = index.path(source, target)
            walked, pages[:] = pages[:], []
            for v in path[:-1]:
                index.hop_and_interval(v, target)
            assert walked == pages and len(walked) == len(path) - 1
            pages.clear()

    def test_a_detour_lands_outside_the_first_bounds(self):
        """A next hop off every shortest path is refused: ``path`` used
        to return the detour, it now raises what ``route`` raises."""
        net = grid_network(7, 7)  # unit lattice: every distance an integer
        index = SILCIndex.build(net)
        target = 48
        source, detour = next(
            (u, v)
            for u in net.vertices()
            for v, w in net.out_edges[u]
            if w + shortest_path(net, v, target)[1] > shortest_path(net, u, target)[1]
            and u not in index.path(v, target)  # the detour reaches the target
        )
        _corrupt(index, source, target, "colors", out_rank(net, source, detour))
        for walk in (index.path, index.route, index.distance):
            with pytest.raises(ValueError, match="lies outside its bounds"):
                walk(source, target)


# ----------------------------------------------------------------------
# INE parity
# ----------------------------------------------------------------------

KS = (1, 4, 25)

#: Re-recorded once: ``same_edge_direct`` learned the two along-edge
#: cases it missed (an object upstream on the query's own edge, reached
#: back along the reverse edge; one on the reverse edge that lies
#: downstream along the query's edge).  Only the two ``edge-query``
#: cells over edge and extent objects moved, paged and unpaged; before,
#: 36 of the 168 (query, k) answers behind all twelve cells named a
#: farther object, and after, none does (checked against Dijkstra over
#: the network cut at every object and query point).  Narrowing the
#: block columns to uint32 codes and outward-rounded float32 lambdas
#: moved no field of any cell: INE reads adjacency lists and pages of
#: the network, never a lambda.  Nor did the 17-byte block record: the
#: network's pages keep their own record sizes, nor did the 10-byte one
#: with float16 lambdas.
GOLDEN: dict[str, str] = {
    "vertex-objects/vertex-query/paged": "708ace8381174a4c",
    "vertex-objects/vertex-query/unpaged": "48611403774ca8f9",
    "vertex-objects/edge-query/paged": "32a7944366f0caa1",
    "vertex-objects/edge-query/unpaged": "7c80e622f24c47c5",
    "edge-objects/vertex-query/paged": "4cb3443b6d6e037d",
    "edge-objects/vertex-query/unpaged": "75766e955c73eafb",
    "edge-objects/edge-query/paged": "1fe90de389a19624",
    "edge-objects/edge-query/unpaged": "02ee0bbb5a8a854f",
    "extent-objects/vertex-query/paged": "7f85274265149f22",
    "extent-objects/vertex-query/unpaged": "d1b0ed1f3e8ffd60",
    "extent-objects/edge-query/paged": "a1db53bc72b7d237",
    "extent-objects/edge-query/unpaged": "7d7679ef3981a6da",
}


def _edge_placements(net, rng, count):
    edges = list(net.iter_edges())
    return [
        (*edges[int(rng.integers(len(edges)))][:2], float(rng.uniform(0.1, 0.9)))
        for _ in range(count)
    ]


def _scenarios(net):
    """``name -> (object set, vertex queries, edge-position queries)``.

    The edge queries are built *from the objects' own edges*, so the
    same-edge cases occur: the object downstream of the query on the
    same directed edge, upstream of it (back along the reverse edge),
    and on the opposite orientation of the same segment -- next to
    queries on edges that carry no object at all.
    """
    rng = np.random.default_rng(41)
    vertices = [int(v) for v in rng.integers(0, net.num_vertices, size=6)]
    placements = _edge_placements(net, rng, 30)
    extent_objects = kernel_parity._extent_objects(net, rng)
    vertex_objects = random_vertex_objects(net, count=40, seed=5)
    object_vertices = [o.position.vertex for o in vertex_objects][:3]

    def around(a, b, f):
        queries = [EdgePosition(a, b, f / 2), EdgePosition(a, b, (1 + f) / 2)]
        if net.has_edge(b, a):
            queries += [EdgePosition(b, a, 1 - f / 2), EdgePosition(b, a, (1 - f) / 2)]
        return queries

    elsewhere = [EdgePosition(*p) for p in _edge_placements(net, rng, 3)]
    edge_parts = [
        p for o in extent_objects for p in position_parts(o.position)
        if isinstance(p, EdgePosition)
    ]
    return {
        "vertex": (vertex_objects, vertices + object_vertices, elsewhere),
        "edge": (
            objects_on_edges(net, placements),
            vertices + [placements[0][0], placements[1][1]],
            [q for p in placements[:3] for q in around(*p)] + elsewhere,
        ),
        "extent": (
            extent_objects,
            vertices,
            [q for p in edge_parts[:3] for q in around(p.a, p.b, p.fraction)]
            + elsewhere,
        ),
    }


def _record(result) -> tuple:
    s = result.stats
    return (
        tuple(n.oid for n in result.neighbors),
        tuple(n.distance.hex() for n in result.neighbors),
        s.settled,
        s.relaxed,
        s.index_probes,
        s.max_queue,
        s.io_accesses,
        s.io_misses,
    )


def compute_digests(net, embedding) -> dict[str, str]:
    """One digest per (objects, query kind, storage) over k and queries."""
    digests = {}
    for name, (objects, vertex_queries, edge_queries) in _scenarios(net).items():
        object_index = ObjectIndex(net, objects, embedding)
        for kind, queries in (("vertex", vertex_queries), ("edge", edge_queries)):
            for storage in ("paged", "unpaged"):
                # A fresh page model per cell: the LRU state a query
                # meets depends only on the queries before it here.
                model = (
                    NetworkStorageModel(net, page_size=256, cache_fraction=0.1)
                    if storage == "paged" else None
                )
                records = [
                    _record(ine_knn(object_index, q, k, storage=model))
                    for k in KS
                    for q in queries
                ]
                digests[f"{name}-objects/{kind}-query/{storage}"] = hashlib.sha256(
                    repr(records).encode()
                ).hexdigest()[:16]
    return digests


def test_ine_answers_and_counted_ops_match_golden(small_net, small_index):
    assert compute_digests(small_net, small_index.embedding) == GOLDEN


def test_ine_scenarios_cover_the_same_edge_cases(small_net):
    """The golden table is only worth its cases: check they occur."""
    for name in ("edge", "extent"):
        objects, _, edge_queries = _scenarios(small_net)[name]
        direct = [
            same_edge_direct(small_net, q, o.position) is not None
            for q in edge_queries for o in objects
        ]
        assert 2 <= sum(direct) < len(direct)
    objects, vertex_queries, _ = _scenarios(small_net)["vertex"]
    occupied = {o.position.vertex for o in objects}
    assert occupied & set(vertex_queries) and set(vertex_queries) - occupied


def test_object_index_tables_match_a_per_query_scan(small_net, small_index):
    """The hoisted tables against the loops INE ran per query, verbatim."""
    for objects, _, _ in _scenarios(small_net).values():
        object_index = ObjectIndex(small_net, objects, small_index.embedding)
        candidates: dict[int, list[tuple[int, float]]] = {}
        for obj in objects:
            for pos in position_parts(obj.position):
                if not isinstance(pos, EdgePosition):
                    continue
                w_fwd = small_net.edge_weight(pos.a, pos.b)
                candidates.setdefault(pos.a, []).append((obj.oid, pos.fraction * w_fwd))
                if small_net.has_edge(pos.b, pos.a):
                    w_rev = small_net.edge_weight(pos.b, pos.a)
                    candidates.setdefault(pos.b, []).append(
                        (obj.oid, (1.0 - pos.fraction) * w_rev)
                    )
        assert dict(object_index.edge_candidates) == candidates
        assert [o.oid for o in object_index.edge_objects] == [
            o.oid for o in objects
            if any(isinstance(p, EdgePosition) for p in position_parts(o.position))
        ]


if __name__ == "__main__":
    net = road_like_network(150, seed=9)
    for key, value in compute_digests(net, SILCIndex.build(net).embedding).items():
        print(f'    "{key}": "{value}",')
