"""Parallel query execution: AsyncEngine scaling past one worker.

PR 3's serving layer ran every query under one global lock because the
shared :class:`StorageSimulator` was not safe to interleave -- so
``AsyncEngine(max_workers=2)`` bought event-loop liveness but zero
execution overlap.  The flat-store stack replaces that lock with
per-thread storage shards (``ShardedStorageSimulator``), and this
benchmark measures what that unlocks, in the paper's I/O-bound regime
(p.38: "I/O time dominates... each refinement may lead to a disk
access"):

* the simulator charges each page fault a *real* (GIL-releasing)
  latency, so queries spend most of their time where the paper says a
  disk-resident index spends it;
* a mixed kNN workload is gathered through ``AsyncEngine`` with one
  and with two workers over the same index and object set;
* assertions, all counted: identical neighbor sets, identical storage
  accesses (parallelism must never change the work, only overlap it),
  two storage shards, and misses on both of them (the work really was
  spread over the two workers).

Wall clock and its ratio are recorded, not asserted: this measures
~1.8-2.2x on an idle host (fault latencies overlap even on one CPU,
the sleeps release the GIL), and a loaded one can read anything.
"""

import asyncio
import time

import pytest

from bench_lib import SeriesRecorder, cached_network, make_objects
from repro import QueryEngine, SILCIndex
from repro.serve import AsyncEngine
from repro.storage import ShardedStorageSimulator

N = 800
K_VALUES = (1, 5, 10)
VARIANTS = ("knn", "knn_m")
NUM_QUERIES = 32
SLEEP_PER_MISS = 8e-4  # real (GIL-releasing) seconds per page fault


@pytest.fixture(scope="module")
def setup():
    net = cached_network(N)
    index = SILCIndex.build(net, chunk_size=128, workers=2)
    object_index = make_objects(net, index, density=0.05)
    step = max(1, net.num_vertices // NUM_QUERIES)
    workload = [
        (v, K_VALUES[i % len(K_VALUES)], VARIANTS[i % len(VARIANTS)])
        for i, v in enumerate(range(0, net.num_vertices, step))
    ]
    return net, index, object_index, workload


def run_workload(index, object_index, workload, workers):
    """Gather the whole workload through AsyncEngine; return metrics."""
    storage = ShardedStorageSimulator.for_table_sizes(
        index.store.sizes.tolist(),
        cache_fraction=0.05,
        sleep_per_miss=SLEEP_PER_MISS,
    )
    engine = QueryEngine(index, object_index, storage=storage)

    async def go():
        async with AsyncEngine(engine, max_workers=workers) as async_engine:
            t0 = time.perf_counter()
            results = await asyncio.gather(
                *(async_engine.knn(q, k, variant=v) for q, k, v in workload)
            )
            return time.perf_counter() - t0, results

    wall, results = asyncio.run(go())
    return wall, results, storage


def test_parallel_query_speedup(setup, capsys):
    net, index, object_index, workload = setup
    recorder = SeriesRecorder(
        "parallel_query",
        ["workers", "wall_seconds", "speedup", "accesses", "misses", "shards"],
    )

    t1, res1, store1 = run_workload(index, object_index, workload, workers=1)
    t2, res2, store2 = run_workload(index, object_index, workload, workers=2)
    speedup = t1 / t2

    recorder.add(1, t1, 1.0, store1.stats.accesses, store1.stats.misses,
                 store1.num_shards)
    recorder.add(2, t2, speedup, store2.stats.accesses, store2.stats.misses,
                 store2.num_shards)
    recorder.emit(capsys)

    # Counted operations: parallelism redistributes the work across
    # shards but must not change it.
    ids1 = [sorted(r.ids()) for r in res1]
    ids2 = [sorted(r.ids()) for r in res2]
    assert ids1 == ids2, "parallel workers changed query answers"
    assert store1.stats.accesses == store2.stats.accesses, (
        "parallel workers changed the number of storage accesses"
    )
    assert store2.num_shards == 2, (
        f"expected 2 storage shards, saw {store2.num_shards}"
    )
    assert all(shard.misses > 0 for shard in store2.shard_stats()), (
        "one of the two workers never faulted a page: nothing overlapped"
    )


def test_per_query_io_accounting_is_thread_local(setup):
    """Concurrent queries must not pollute each other's io stats.

    Every per-query miss count, summed, must equal the storage
    totals -- which can only hold if each query's delta was taken
    against its own thread's counters.
    """
    net, index, object_index, workload = setup
    _, results, storage = run_workload(index, object_index, workload, workers=2)
    assert sum(r.stats.io_accesses for r in results) == storage.stats.accesses
    assert sum(r.stats.io_misses for r in results) == storage.stats.misses
