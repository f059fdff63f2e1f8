"""Chaos benchmark: the sharded tier under deterministic worker kills.

The fault-tolerance acceptance bar, run as a counted benchmark so it
executes on every push:

* **Exactness under faults** -- a 4-shard workload with two injected
  kills of the worker serving it must return answers *identical* to
  the unfaulted unsharded baseline (the shard group respawns, backs
  off, and replays the in-flight request; the caller never sees the
  crash).
* **Self-healing** -- after the workload every shard answers pings
  again, with no operator action.
* **Observability** -- the crashes, respawns and retries are counted
  in the shard group's metrics registry under ``fault_events_total``.
* **Crash-safe storage** -- a truncated index column fails the load
  with :class:`~repro.errors.CorruptIndexError` naming the column,
  before any query can run on garbage.

Latency only gets a generous sanity bound: recovery adds backoff
sleeps by design (availability costs latency, never correctness).
"""

import time

import pytest

from bench_lib import SeriesRecorder, cached_network, make_objects
from repro import QueryEngine, SILCIndex
from repro.errors import CorruptIndexError
from repro.faults import FaultInjector, truncate_file
from repro.shard import ShardGroup

N = 1200
NUM_SHARDS = 4
K = 5
NUM_QUERIES = 52
#: One sequential client is served by slot 0 (the dispatcher lends the
#: worker returned last, and slot 0 first); the two kills hit it at
#: these request ordinals.
SERVING = 0
KILL_POINTS = (5, 10)
P95_CEILING_S = 5.0  # generous: includes respawn backoff + replay


@pytest.fixture(scope="module")
def setup():
    net = cached_network(N)
    index = SILCIndex.build(net, chunk_size=128, workers=2)
    object_index = make_objects(net, index, density=0.05)
    engine = QueryEngine(index, object_index)
    return net, index, engine


def ranked(result):
    return [(round(n.distance, 9), n.oid) for n in result.neighbors]


def test_fault_recovery(benchmark, capsys, setup):
    net, _, engine = setup
    injector = FaultInjector()
    group = ShardGroup.from_engine(engine, NUM_SHARDS, fault_injector=injector)
    try:
        assert sorted(group.workers) == list(range(NUM_SHARDS))
        step = net.num_vertices // NUM_QUERIES
        queries = list(range(0, step * NUM_QUERIES, step))
        for ordinal in KILL_POINTS:
            injector.kill_worker_at(SERVING, ordinal)

        baseline = [ranked(engine.knn(q, K, exact=True)) for q in queries]

        def chaos_workload():
            answers, latencies = [], []
            for q in queries:
                t0 = time.perf_counter()
                answers.append(ranked(group.knn(q, K)))
                latencies.append(time.perf_counter() - t0)
            return answers, latencies

        answers, latencies = benchmark.pedantic(
            chaos_workload, rounds=1, iterations=1
        )

        # Exactness under faults: every answer identical to the
        # unfaulted baseline, including the two killed-mid-request ones.
        assert answers == baseline
        assert injector.fired("worker_kill") == len(KILL_POINTS)

        # Self-healing, no operator action.
        health = group.health_check()
        assert all(health.values()), f"unhealed shards: {health}"

        # The whole recovery story is counted in the group's registry.
        crashes, respawns, retries, failovers = (
            group.registry.counter_value(
                "fault_events_total", stage="shard", event=event
            )
            for event in ("worker_crash", "respawn", "retry", "failover")
        )
        assert crashes == 2
        assert respawns >= 2
        assert retries >= 2
        assert failovers == 0  # respawn+replay handled everything

        ordered = sorted(latencies)
        p95 = ordered[int(0.95 * (len(ordered) - 1))]
        assert p95 < P95_CEILING_S

        recorder = SeriesRecorder(
            "fault_recovery",
            ["queries", "kills", "respawns", "retries", "p50_ms", "p95_ms"],
        )
        recorder.add(
            len(queries), crashes, respawns, retries,
            ordered[len(ordered) // 2] * 1e3, p95 * 1e3,
        )
        recorder.emit(capsys)
        benchmark.extra_info["respawns"] = respawns
        benchmark.extra_info["p95_ms"] = p95 * 1e3
    finally:
        group.close()


def test_truncated_index_fails_load_before_any_query(tmp_path, setup):
    net, index, _ = setup
    path = tmp_path / "index.silc"
    index.save(path)
    truncate_file(path / "codes.npy")
    with pytest.raises(CorruptIndexError, match="codes"):
        SILCIndex.load(path, net, mmap=True)
