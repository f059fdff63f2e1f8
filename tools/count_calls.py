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
queue pushes and simulated page misses; ``-`` for path and distance.
A second table prices INE, the backend ``--oracle auto`` sends small-k
kNN to: ``engine.knn(q, k, oracle="ine")`` at k in {1, 4}, with its
settled vertices and relaxed edges per request.  Those calls are kept
out of the seeded mix, so the mix's rows (and ``check_memory.py``,
which replays it) do not depend on them.
A third table prices the front end around the query: ``serve_jsonl``
on a loop thread of its own, fed over a real pipe by a closed-loop
client (the next line once the reply is in, and once the loop is parked
in ``select()`` again), with Python frames and event-loop turns
(``BaseEventLoop._run_once`` calls) counted on the loop thread per
request -- the query's own frames included, so set it beside the first
table.  Its batch row is 2 chunks, as in bench's ``batch-bulk``.
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
OPS = ("links", "pushes", "io_misses")
#: INE rows: k values and queries per k.
INE_KS, INE_QUERIES = (1, 4), 40
#: Closed-loop rows: requests per row, and the chunk size that cuts a
#: batch of ``BATCH`` queries in two.
SERVE_REQUESTS, SERVE_CHUNK = 40, BATCH // 2


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
        sum(s.queue_pushes for s in stats),
        sum(s.io_misses for s in stats),
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


def closed_loop_counts(engine, requests) -> list[tuple[int, int]]:
    """``(frames, loop turns)`` per request, each sent once its
    predecessor's reply is read and the loop thread has gone quiet."""
    from repro.serve import AsyncEngine, FairScheduler, SILCServer, serve_jsonl

    counted = [0, 0]  # frames entered, loop turns, on the loop thread
    run_once = asyncio.BaseEventLoop._run_once.__code__

    def profiler(frame, event, arg):
        if event == "call":
            counted[0] += 1
            counted[1] += frame.f_code is run_once

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

    def quiet() -> tuple[int, int]:
        while True:  # parked: in the selector's select() and nothing moves
            before = tuple(counted)
            time.sleep(0.001)
            frame = sys._current_frames().get(thread.ident)
            parked = frame is not None and frame.f_code.co_filename == selectors.__file__
            if parked and tuple(counted) == before:
                return before

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
            counts.append((end[0] - start[0], end[1] - start[1]))
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

    requests = serve_requests(engine)
    counts = closed_loop_counts(engine, requests + requests)[len(requests):]
    serve_rows: dict[str, list[tuple[int, int]]] = {}
    for (label, _), count in zip(requests, counts):
        serve_rows.setdefault(label, []).append(count)
    print()
    print(f"{'serve_jsonl':<20}{'requests':>9}{'frames/request':>16}{'turns/request':>16}")
    for label, row in serve_rows.items():
        print(
            f"{label:<20}{len(row):>9}{sum(f for f, _ in row) / len(row):>16.1f}"
            f"{sum(t for _, t in row) / len(row):>16.2f}"
        )
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    raise SystemExit(main(sys.argv[1], sys.argv[2]))
