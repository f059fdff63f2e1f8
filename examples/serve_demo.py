"""Serving demo: fair scheduling and admission control in action.

Stands a :class:`repro.serve.SILCServer` on one built SILC index and
races two clients against it: a bulk client streaming a thousand
batched kNN queries and an interactive client issuing single queries.
The fair scheduler keeps the interactive client's waiting time at
chunk granularity -- it never queues behind the whole backlog -- and
the admission controller sheds work past the in-flight cap with an
explicit retry-after instead of letting the queue grow without bound.

The same server is scriptable from a shell via the JSON-lines CLI::

    python -m repro generate --size 500 net.txt
    python -m repro build net.txt index.silc
    echo '{"id": 1, "kind": "knn", "query": 0, "k": 5}' \
        | python -m repro serve net.txt index.silc --objects 40

Run:  python examples/serve_demo.py
"""

import asyncio

from repro import ObjectIndex, QueryEngine, SILCIndex, road_like_network
from repro.datasets import random_vertex_objects
from repro.serve import (
    AdmissionController,
    AsyncEngine,
    FairScheduler,
    Request,
    SILCServer,
)


async def submit_with_retry(server, request, *, max_attempts=5, cap=2.0):
    """Submit honouring the server's retry contract (see
    :mod:`repro.serve.protocol`).

    A shed response carries ``retry_after`` -- the server's own estimate
    of when capacity frees up.  The client waits at least that long,
    scaled by capped exponential backoff (``retry_after * 2**(attempt-1)``,
    never more than ``cap`` seconds) so a herd of retrying clients
    spreads out instead of stampeding the admission controller.  A
    ``retry_after`` of 0 means the request itself is the problem
    (request_too_large): resubmitting verbatim can never succeed, so
    the shed response is returned as-is for the caller to split.
    """
    response = await server.submit(request)
    for attempt in range(1, max_attempts):
        if response.status != "shed" or not response.retry_after:
            return response
        wait = min(cap, response.retry_after * 2 ** (attempt - 1))
        await asyncio.sleep(wait)
        response = await server.submit(request)
    return response


async def main() -> None:
    # 1. One built index + engine, as `repro serve` builds it: no page
    #    simulator (examples/quickstart.py shows the paper's 5 % one).
    net = road_like_network(400, seed=7)
    index = SILCIndex.build(net)
    objects = random_vertex_objects(net, count=60, seed=11)
    engine = QueryEngine(index, ObjectIndex(net, objects, index.embedding))
    print(f"serving a {net.num_vertices}-vertex network, {len(objects)} objects")

    # 2. The serving stack: awaitable engine facade, chunked fair
    #    scheduler, token-bucket + in-flight admission control.
    async with AsyncEngine(engine) as async_engine:
        server = SILCServer(
            async_engine,
            scheduler=FairScheduler(chunk_size=32),
            admission=AdmissionController(max_in_flight=4096),
        )
        async with server:
            # 3. A bulk client dumps 1000 queries in four batches...
            bulk = [
                Request(id=f"bulk-{b}", client="bulk", kind="knn_batch",
                        queries=tuple((b + 4 * i) % net.num_vertices
                                      for i in range(250)),
                        k=3, exact=False)
                for b in range(4)
            ]
            bulk_tasks = [asyncio.create_task(server.submit(r)) for r in bulk]
            await asyncio.sleep(0)  # let the backlog enqueue

            # 4. ...while an interactive client keeps asking single kNNs.
            #    sched_delay counts how many queries ran while it waited.
            print("\ninteractive queries racing the bulk backlog:")
            for i, query in enumerate([3, 77, 191, 289]):
                response = await server.submit(
                    Request(id=f"web-{i}", client="web", kind="knn",
                            queries=(query,), k=3)
                )
                print(
                    f"  knn({query}): neighbors {response.result['ids']}, "
                    f"waited behind {response.sched_delay} queries "
                    f"({response.latency * 1e3:.1f} ms)"
                )
            for task in bulk_tasks:
                await task

            # 5. Admission control: load past the in-flight cap is
            #    shed explicitly instead of queueing without bound.  A
            #    batch that could never fit is refused outright
            #    (request_too_large, retry_after 0: split it); an
            #    over-capacity moment gets a finite retry-after.
            #    submit_with_retry honours that contract: it backs off
            #    by retry_after (doubling, capped) before resubmitting,
            #    and gives up immediately on retry_after 0.
            flood = Request(id="flood", client="bulk", kind="knn_batch",
                            queries=tuple(range(5000)), k=3, exact=False)
            response = await submit_with_retry(server, flood)
            print(
                f"\nflood of {flood.cost} queries: {response.status} "
                f"({response.reason}, retry_after {response.retry_after:.2f}s)"
            )

        print("\nfinal server metrics:")
        print(server.snapshot().format())


if __name__ == "__main__":
    asyncio.run(main())
