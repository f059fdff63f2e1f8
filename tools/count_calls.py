"""Price the query path in Python frames per request, to the digit.

Wall clock cannot resolve a frame or two per request; a count can, and
it repeats exactly.  This script is a serving process without the
server (``serving_mix.py``: the engine ``repro serve`` builds and one
seeded mix of the calls the server's loop thread makes).  The mix runs
once unobserved (the resolved-location cache and the first read of each
mapped page are first-touch costs), then once under ``sys.setprofile``
counting every Python frame entered.  Beside the frames, each kNN row
carries the counted ops its answers' ``stats`` record, per request:
links walked (``refinements`` + the exact pass's ``post_refinements``),
collisions (objects popped that Theorem 1 could not confirm yet) and
queue pushes; ``-`` for path and distance.
A second table prices INE, the backend ``--oracle auto`` sends small-k
kNN to: ``engine.knn(q, k, oracle="ine")`` at k in {1, 4}, with its
settled vertices and relaxed edges per request.  Those calls are kept
out of the seeded mix, so the mix's rows (and ``check_memory.py``,
which replays it) do not depend on them.
A browse table prices distance browsing, ``browse`` pulled for its
first k at k in {1, 10, 50}, beside the served ``inn`` search
(``best_first_knn(variant="inn")``, ``exact=False``) for the same k,
from the same seeded vertices: frames per request and per neighbour
pulled.
A third table prices the front end around the query: ``serve_jsonl``
on a loop thread of its own, fed over a real pipe by a closed-loop
client (the next line once the reply is in, and once the loop is parked
in ``select()`` again), with Python frames and event-loop turns
(``BaseEventLoop._run_once`` calls) counted on the loop thread per
request -- the query's own frames included, so set it beside the first
table.  Its batch row is 2 chunks, as in bench's ``batch-bulk``.
A fourth table takes the query's own frames out of those: frames per
closed-loop request outside the query (below the oracle's ``knn`` or the
index's ``distance`` / ``route``), by stage -- read + parse + validate
(the loop turn, framing, JSON, ``request_from_dict``), admit + schedule
(admission, scheduler, pump), engine plumbing + plan (``AsyncEngine``,
``QueryEngine``, the planner), reply encode + write (``_settle`` to the
flush) and after-reply counting (the registry and ``QueryStats.add``
once the reply is out).  A frame belongs to the stage of the nearest
function above it that names one.  Its ``knn k=2`` row runs
``--oracle auto`` with labels built in process, as bench's
``point-shallow`` serves.
A fifth table prices a ``--shards 2`` kNN visit at k = 10: the frames
the parent enters per ``ShardGroup.knn`` (the location check, the slot
stack, the pipe round trip, rebuilding the answer), and the worker's
frames per request outside the kernel (below the oracle's ``knn``),
counted on a worker loop run on a thread of this process, from one
entry into its frame reader to the next.
Run it before and after a change to the path and quote the tables.

Usage: count_calls.py NETWORK INDEX
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import selectors
import sys
import threading
import time

from serving_mix import BATCH, SEED, seeded_mix, serving_engine


#: Counted ops per kNN row, summed from each answer's stats.
OPS = ("links", "collisions", "pushes")
#: INE rows: k values and queries per k.
INE_KS, INE_QUERIES = (1, 4), 40
#: Browse rows: k values (the mix's) and queries per k.
BROWSE_KS, BROWSE_QUERIES = (1, 10, 50), 40
#: Closed-loop rows: requests per row, and the chunk size that cuts a
#: batch of ``BATCH`` queries in two.
SERVE_REQUESTS, SERVE_CHUNK = 40, BATCH // 2
#: Shard-visit rows: requests, and their k (bench's ``scatter-sharded``).
SHARD_VISITS, SHARD_K = 40, 10


def frames_entered(call) -> tuple[int, object]:
    """Python frames entered while ``call()`` runs (``call``'s own
    excluded), and what it returned."""
    frames = -1

    def profiler(frame, event, arg):
        nonlocal frames
        if event == "call":
            frames += 1

    sys.setprofile(profiler)
    try:
        result = call()
    finally:
        sys.setprofile(None)
    return frames, result


def counted_ops(result) -> tuple[int, ...] | None:
    """``OPS`` of a ``knn`` / ``knn_batch`` answer; None for anything else."""
    answers = getattr(result, "results", [result])  # a batch holds its answers
    stats = [a.stats for a in answers if hasattr(a, "stats")]
    if not stats:
        return None
    return (
        sum(s.refinements + s.extras.get("post_refinements", 0) for s in stats),
        sum(s.collisions for s in stats),
        sum(s.queue_pushes for s in stats),
    )


def ine_calls(engine) -> list[tuple[str, object]]:
    """``(row label, call)`` pairs forcing the INE backend, seeded."""
    rng = random.Random(SEED)
    n = engine.index.network.num_vertices
    return [
        (f"ine        k={k}", lambda q=rng.randrange(n), k=k: engine.knn(q, k, oracle="ine"))
        for k in INE_KS
        for _ in range(INE_QUERIES)
    ]


def browse_calls(engine) -> list[tuple[str, int, object]]:
    """``(row label, k, call)``: ``browse`` pulled k times and the served
    ``inn`` search at k, from the same seeded vertices."""
    from itertools import islice

    from repro.query import browse
    from repro.query.bestfirst import best_first_knn

    index, objects = engine.index, engine.object_index
    rng = random.Random(SEED)
    calls = []
    for k in BROWSE_KS:
        for _ in range(BROWSE_QUERIES):
            q = rng.randrange(index.network.num_vertices)
            calls.append((f"browse     k={k}", k,
                          lambda q=q, k=k: list(islice(browse(index, objects, q), k))))
            calls.append((f"inn        k={k}", k,
                          lambda q=q, k=k: best_first_knn(index, objects, q, k, variant="inn")))
    return calls


def serve_requests(engine) -> list[tuple[str, dict]]:
    """``(row label, request record)`` pairs for the closed-loop table, seeded."""
    rng = random.Random(SEED)
    n = engine.index.network.num_vertices
    requests = []
    for _ in range(SERVE_REQUESTS):
        requests += [
            ("knn        k=1", {"kind": "knn", "query": rng.randrange(n), "k": 1}),
            ("knn        k=4", {"kind": "knn", "query": rng.randrange(n), "k": 4}),
            *((kind, {"kind": kind, "source": rng.randrange(n), "target": rng.randrange(n)})
              for kind in ("distance", "path")),
            ("knn_batch  2 chunks",
             {"kind": "knn_batch", "queries": [rng.randrange(n) for _ in range(BATCH)], "k": 4}),
        ]
    return requests


#: The fourth table's stages, in the order a request crosses them.
STAGES = (
    "read + parse + validate", "admit + schedule", "engine plumbing + plan",
    "reply encode + write", "after-reply counting",
)
READ, ADMIT, ENGINE, REPLY, COUNT = STAGES


class Stages:
    """The stage of a frame outside the query: that of the nearest
    function above it (itself included) that names one, ``READ`` when
    none does (the loop's own frames); None for the query's own frames,
    those at or below a query entry point.  The registry,
    ``QueryStats.add`` and ``SILCServer._count`` count as ``COUNT`` when
    the reply stage called them, else as whoever did (the planner)."""

    def __init__(self) -> None:
        from repro import engine
        from repro.obs import registry
        from repro.oracle import labelling, planner
        from repro.oracle.silc import INEOracle, SILCOracle
        from repro.query import stats
        from repro.serve import admission, protocol, scheduler, server
        from repro.serve import engine as serve_engine
        from repro.silc.index import SILCIndex

        self.query = {f.__code__ for f in (
            SILCOracle.knn, INEOracle.knn, labelling.PrunedLabellingOracle.knn,
            SILCIndex.distance, SILCIndex.route,
        )}
        self.files = {
            serve_engine.__file__: ENGINE, engine.__file__: ENGINE, planner.__file__: ENGINE,
            admission.__file__: ADMIT, scheduler.__file__: ADMIT, asyncio.locks.__file__: ADMIT,
            registry.__file__: COUNT,
        }
        names = {
            server.__file__: {
                "data_received": READ, "eof_received": READ, "accept": READ,
                "submit_nowait": ADMIT, "_pump": ADMIT, "_rest": ADMIT,
                "_settle": REPLY, "_finish": REPLY, "emit": REPLY, "write": REPLY,
                "<lambda>": REPLY, "_count": COUNT,
            },
            protocol.__file__: {"request_from_dict": READ, "response_to_dict": REPLY},
            stats.__file__: {"add": COUNT},
        }
        self.names = {(f, name): stage for f, table in names.items() for name, stage in table.items()}

    def of(self, frame) -> str | None:
        counting = False
        while frame is not None:
            code = frame.f_code
            if code in self.query:
                return None
            stage = self.names.get((code.co_filename, code.co_name)) or self.files.get(code.co_filename)
            if stage is COUNT:
                counting = True
            elif stage is not None:
                return COUNT if counting and stage is REPLY else stage
            frame = frame.f_back
        return READ


def closed_loop_counts(engine, requests) -> list[tuple[int, int, dict[str, int]]]:
    """``(frames, loop turns, frames outside the query by stage)`` per
    request, each sent once its predecessor's reply is read and the loop
    thread has gone quiet."""
    from repro.serve import AsyncEngine, FairScheduler, SILCServer, serve_jsonl

    counted = [0, 0, dict.fromkeys(STAGES, 0)]  # on the loop thread
    run_once = asyncio.BaseEventLoop._run_once.__code__
    stages = Stages()

    def profiler(frame, event, arg):
        if event == "call":
            counted[0] += 1
            counted[1] += frame.f_code is run_once
            stage = stages.of(frame)
            if stage is not None:
                counted[2][stage] += 1

    in_r, in_w = os.pipe()
    out_r, out_w = os.pipe()

    async def serve() -> None:
        async with AsyncEngine(engine) as async_engine:
            server = SILCServer(async_engine, scheduler=FairScheduler(chunk_size=SERVE_CHUNK))
            with open(in_r, "rb", buffering=0) as source, open(out_w, "w") as sink:
                await serve_jsonl(server, source, sink)

    def loop_thread() -> None:
        sys.setprofile(profiler)
        try:
            asyncio.run(serve())
        finally:
            sys.setprofile(None)

    def quiet() -> tuple[int, int, dict[str, int]]:
        while True:  # parked: in the selector's select() and nothing moves
            before = counted[0]
            time.sleep(0.001)
            frame = sys._current_frames().get(thread.ident)
            parked = frame is not None and frame.f_code.co_filename == selectors.__file__
            if parked and counted[0] == before:
                return counted[0], counted[1], dict(counted[2])

    thread = threading.Thread(target=loop_thread)
    thread.start()
    counts = []
    with open(in_w, "w") as out, open(out_r, "rb") as replies:
        start = quiet()
        for rid, (_, record) in enumerate(requests):
            out.write(json.dumps({"id": rid, **record}) + "\n")
            out.flush()
            if b'"ok"' not in replies.readline():
                raise RuntimeError(f"request {rid} was not answered ok")
            end = quiet()
            counts.append((
                end[0] - start[0], end[1] - start[1],
                {stage: end[2][stage] - start[2][stage] for stage in STAGES},
            ))
            start = end
    thread.join()
    return counts


def main(network_path: str, index_path: str) -> int:
    engine = serving_engine(network_path, index_path)
    mix = seeded_mix(engine)
    for _, call in mix:
        call()
    rows: dict[str, list[tuple[int, tuple[int, ...] | None]]] = {}
    for label, call in mix:
        frames, result = frames_entered(call)
        rows.setdefault(label, []).append((frames, counted_ops(result)))
    print(
        f"{'request':<18}{'requests':>9}{'frames':>10}{'frames/request':>16}"
        + "".join(f"{op + '/request':>20}" for op in OPS)
    )
    for label in sorted(rows):
        row = rows[label]
        frames = sum(f for f, _ in row)
        ops = [o for _, o in row if o is not None]
        cells = [
            f"{sum(o[i] for o in ops) / len(ops):>20.1f}" if ops else f"{'-':>20}"
            for i in range(len(OPS))
        ]
        print(f"{label:<18}{len(row):>9}{frames:>10}{frames / len(row):>16.1f}" + "".join(cells))
    total = sum(f for row in rows.values() for f, _ in row)
    print(f"{'all':<18}{len(mix):>9}{total:>10}{total / len(mix):>16.1f}")

    ine = ine_calls(engine)
    for _, call in ine:
        call()
    ine_rows: dict[str, list[tuple[int, object]]] = {}
    for label, call in ine:
        ine_rows.setdefault(label, []).append(frames_entered(call))
    print()
    print(
        f"{'request':<18}{'requests':>9}{'frames':>10}{'frames/request':>16}"
        f"{'settled/request':>20}{'relaxed/request':>20}"
    )
    for label, row in ine_rows.items():
        frames = sum(f for f, _ in row)
        settled = sum(r.stats.settled for _, r in row) / len(row)
        relaxed = sum(r.stats.relaxed for _, r in row) / len(row)
        print(
            f"{label:<18}{len(row):>9}{frames:>10}{frames / len(row):>16.1f}"
            f"{settled:>20.1f}{relaxed:>20.1f}"
        )

    browsing = browse_calls(engine)
    for _, _, call in browsing:
        call()
    browse_rows: dict[str, list[tuple[int, int]]] = {}
    for label, k, call in browsing:
        browse_rows.setdefault(label, []).append((frames_entered(call)[0], k))
    print()
    print(f"{'browse / served':<18}{'requests':>9}{'frames':>10}{'frames/request':>16}"
          f"{'frames/neighbour':>20}")
    for label, row in browse_rows.items():
        frames = sum(f for f, _ in row)
        pulled = sum(k for _, k in row)
        print(f"{label:<18}{len(row):>9}{frames:>10}{frames / len(row):>16.1f}"
              f"{frames / pulled:>20.2f}")

    requests = serve_requests(engine)
    counts = closed_loop_counts(engine, requests + requests)[len(requests):]
    serve_rows: dict[str, list[tuple[int, int, dict[str, int]]]] = {}
    for (label, _), count in zip(requests, counts):
        serve_rows.setdefault(label, []).append(count)
    print()
    print(f"{'serve_jsonl':<20}{'requests':>9}{'frames/request':>16}{'turns/request':>16}")
    for label, row in serve_rows.items():
        print(
            f"{label:<20}{len(row):>9}{sum(c[0] for c in row) / len(row):>16.1f}"
            f"{sum(c[1] for c in row) / len(row):>16.2f}"
        )

    auto = auto_requests(engine)
    auto_counts = closed_loop_counts(labelled_auto_engine(engine), auto + auto)[len(auto):]
    outside = {label: serve_rows[label] for label in ("distance", "path")}
    outside["knn k=1 (silc)"] = serve_rows["knn        k=1"]
    outside["knn k=2 (auto)"] = auto_counts
    print()
    print(f"{'outside the query':<20}{'requests':>9}" + "".join(f"{s:>24}" for s in STAGES)
          + f"{'frames/request':>16}")
    for label, row in outside.items():
        per_stage = [sum(c[2][stage] for c in row) / len(row) for stage in STAGES]
        print(f"{label:<20}{len(row):>9}" + "".join(f"{v:>24.1f}" for v in per_stage)
              + f"{sum(per_stage):>16.1f}")

    visits = shard_visit_counts(engine)
    print()
    print(f"{'shard visit':<20}{'requests':>9}{'parent frames/request':>24}"
          f"{'worker frames outside the kernel/request':>44}")
    parent, worker = visits
    print(f"{'knn        k=' + str(SHARD_K):<20}{len(parent):>9}{sum(parent) / len(parent):>24.1f}"
          f"{sum(worker) / len(worker):>44.1f}")
    return 0


def shard_visit_counts(engine) -> tuple[list[int], list[int]]:
    """Parent frames per ``ShardGroup.knn`` at ``SHARD_K`` over two worker
    processes, and worker frames per request outside the kernel, from
    seeded vertices; each query runs once unobserved first."""
    import multiprocessing as mp
    from dataclasses import replace

    from repro.oracle.silc import SILCOracle
    from repro.shard import ShardGroup
    from repro.shard import worker as shard_worker

    rng = random.Random(SEED)
    queries = [rng.randrange(engine.index.network.num_vertices) for _ in range(SHARD_VISITS)]
    with ShardGroup.from_engine(engine, 2) as group:
        for q in queries:
            group.knn(q, SHARD_K)
        parent = [frames_entered(lambda q=q: group.knn(q, SHARD_K))[0] for q in queries]
        spec = replace(group.spec, shard_id=0)

    kernel, reader = SILCOracle.knn.__code__, shard_worker._recv_frame.__code__
    counted, entries = [0], []

    def profiler(frame, event, arg):
        if event != "call":
            return
        if frame.f_code is reader:
            entries.append(counted[0])
        above = frame
        while above is not None:
            if above.f_code is kernel:
                return
            above = above.f_back
        counted[0] += 1

    ours, theirs = mp.Pipe()
    threading.setprofile(profiler)
    try:
        thread = threading.Thread(target=shard_worker._shard_worker_main, args=(theirs, spec))
        thread.start()
    finally:
        threading.setprofile(None)
    fd = ours.fileno()
    for q in queries + queries:
        shard_worker._send_frame(fd, ("knn", q, SHARD_K, "knn", False, None, True))
        if shard_worker._recv_frame(fd)[0] != "ok":
            raise RuntimeError(f"shard visit from {q} was not answered ok")
    shard_worker._send_frame(fd, ("stop",))
    thread.join()
    ours.close()
    worker = [b - a for a, b in zip(entries, entries[1:])][len(queries):]
    return parent, worker


def auto_requests(engine) -> list[tuple[str, dict]]:
    """``knn`` at k = 2 from seeded vertices, for the ``--oracle auto`` row."""
    rng = random.Random(SEED)
    n = engine.index.network.num_vertices
    return [("knn k=2", {"kind": "knn", "query": rng.randrange(n), "k": 2})
            for _ in range(SERVE_REQUESTS)]


def labelled_auto_engine(engine):
    """``engine``'s index and objects under ``--oracle auto``, with labels
    built here, as ``repro serve`` runs it."""
    from repro.engine import QueryEngine
    from repro.oracle import PrunedLabellingOracle

    return QueryEngine(
        engine.index, engine.object_index,
        labelling=PrunedLabellingOracle.build(engine.index.network), oracle="auto",
    )


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    raise SystemExit(main(sys.argv[1], sys.argv[2]))
