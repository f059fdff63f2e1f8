"""Shard worker supervision: crash detection, respawn, replay, failover.

The acceptance bar (docs/ARCHITECTURE.md invariant): fault handling
never changes answers, only latency.  A worker killed mid-workload must
yield the identical exact answer -- replayed on a respawned worker, or
answered on the unsharded engine once the slot stays down -- never a
hang, never a partial or silently wrong result, never a result past
its deadline.
"""

import time
from dataclasses import replace

import pytest

from repro import ObjectIndex, SILCIndex, road_like_network
from repro.cli import main
from repro.datasets import random_vertex_objects
from repro.engine import QueryEngine
from repro.errors import DeadlineExceeded, WorkerDied
from repro.faults import FaultInjector
from repro.obs import Tracer
from repro.shard import ShardGroup
from repro.shard.worker import BACKOFF_BASE, BACKOFF_CAP, BACKOFF_JITTER, backoff, spawn_worker

NUM_SHARDS = 4
K = 3
#: The slot one sequential client is always served by (the dispatcher
#: lends the worker returned last, and slot 0 first).
SERVING = 0
#: Queries spread over the network; any of them goes to ``SERVING``.
QUERIES = (0, 17, 42, 99, 133)


def ranked(result):
    return [(round(n.distance, 9), n.oid) for n in result.neighbors]


def faults(group, event):
    """``fault_events_total{event}`` as the group's registry counted it."""
    return group.registry.counter_value(
        "fault_events_total", stage="shard", event=event
    )


@pytest.fixture(scope="module")
def setup():
    net = road_like_network(150, seed=5)
    index = SILCIndex.build(net)
    objects = random_vertex_objects(net, count=40, seed=7)
    object_index = ObjectIndex(net, objects, index.embedding)
    engine = QueryEngine(index, object_index)
    return net, engine


def make_group(engine, injector=None):
    return ShardGroup.from_engine(engine, NUM_SHARDS, fault_injector=injector)


class TestRespawnPolicy:
    def test_kill_mid_workload_recovers_identical_answers(self, setup):
        _, engine = setup
        injector = FaultInjector()
        group = make_group(engine, injector)
        try:
            shard = SERVING
            injector.kill_worker_at(shard, 2)
            queries = list(QUERIES)
            expected = [ranked(engine.knn(q, K, exact=True)) for q in queries]
            got = [ranked(group.knn(q, K)) for q in queries]
            assert got == expected
            assert injector.fired("worker_kill") == 1
            assert faults(group, "worker_crash") >= 1
            assert faults(group, "respawn") >= 1
            assert faults(group, "retry") >= 1
            # The shard healed: a fresh worker answers its pings.
            assert group.health_check()[shard] is True
        finally:
            group.close()

    def test_externally_killed_worker_heals_on_next_query(self, setup):
        _, engine = setup
        group = make_group(engine)
        try:
            shard = SERVING
            group.workers[shard].process.kill()
            group.workers[shard].process.join(5.0)
            assert group.health_check()[shard] is False
            query = QUERIES[0]
            expected = ranked(engine.knn(query, K, exact=True))
            assert ranked(group.knn(query, K)) == expected
            assert group.health_check()[shard] is True
        finally:
            group.close()

    def test_retries_exhausted_falls_over_to_unsharded_engine(self, setup):
        """When every respawn attempt is immediately re-killed, the
        router still answers -- exactly -- on the fallback engine."""
        _, engine = setup
        injector = FaultInjector()
        group = make_group(engine, injector)
        try:
            shard = SERVING
            # Kill the original send AND both post-respawn replays.
            injector.kill_worker_at(shard, 1).kill_worker_at(shard, 2).kill_worker_at(shard, 3)
            query = QUERIES[0]
            result = group.knn(query, K)
            assert ranked(result) == ranked(engine.knn(query, K, exact=True))
            assert result.stats.extras.get("failover") is True
            assert [faults(group, event) for event in ("worker_crash", "respawn", "failover")] == [
                3, 2, 1
            ]
        finally:
            group.close()

    def test_respawn_refuses_a_directory_published_under_the_tier(
        self, setup, tmp_path
    ):
        """Workers map the directory the server mapped; another
        network's index published there (same vertex count, so every
        shape check passes) must not be served by a replacement."""
        net, engine = setup
        engine.index.save(tmp_path / "index")
        mapped = QueryEngine(
            SILCIndex.load(tmp_path / "index", net, mmap=True), engine.object_index
        )
        group = ShardGroup.from_engine(mapped, 2)
        try:
            assert group.directory == tmp_path / "index"
            other = road_like_network(net.num_vertices, seed=6)
            SILCIndex.build(other).save(tmp_path / "index")
            shard = SERVING
            group.workers[shard].kill()
            results = [group.knn(query, K) for query in QUERIES[:3]]
            # The parent and slot 1 still map the files they loaded:
            # every answer is the original network's.
            for query, result in zip(QUERIES[:3], results):
                assert ranked(result) == ranked(engine.knn(query, K, exact=True))
            # Only the first query met the dead slot, which then went to
            # the bottom of the stack: slot 1 served the other two.
            assert [r.stats.extras.get("failover") for r in results] == [True, None, None]
            assert faults(group, "respawn_failure") >= 1
            assert faults(group, "respawn") == 0
            replacement = spawn_worker(replace(group.spec, shard_id=shard))
            with pytest.raises(RuntimeError, match="failed to start: CorruptIndexError: "
                               "index directory changed since the shard tier started"):
                replacement.ping()
            replacement.stop()
        finally:
            group.close()


class TestFailoverPolicy:
    def test_a_dead_slot_goes_to_the_bottom_of_the_stack(self, setup):
        """A slot still down after its retries answers on the unsharded
        engine once: the queries after it take a healthy slot instead of
        meeting the dead worker again."""
        _, engine = setup
        injector = FaultInjector()
        group = make_group(engine, injector)
        try:
            injector.kill_worker_at(SERVING, 1).kill_worker_at(SERVING, 2).kill_worker_at(SERVING, 3)
            tracer = Tracer()
            traces = [tracer.start_trace() for _ in QUERIES]
            results = [group.knn(query, K, trace=trace) for query, trace in zip(QUERIES, traces)]
            assert [ranked(r) for r in results] == [
                ranked(engine.knn(query, K, exact=True)) for query in QUERIES
            ]
            later = len(QUERIES) - 1
            assert [r.stats.extras.get("failover") for r in results] == [True] + [None] * later
            visited = [
                span.name for trace in traces for span in trace.spans
                if span.name.startswith("shard:")
            ]
            assert visited == [f"shard:{SERVING}"] + ["shard:1"] * later
            assert (faults(group, "worker_crash"), faults(group, "failover")) == (3, 1)
        finally:
            group.close()


class TestDegradePolicy:
    def test_serve_refuses_the_retired_degrade_policy(self, capsys):
        """A live worker holds every object, so there is no partial
        answer left to serve: ``degrade`` is not a policy any more, and
        with one recovery path there is no policy, nor a retry count,
        to choose."""
        for knob in (["--on-shard-failure", "degrade"], ["--on-shard-failure", "failover"],
                     ["--max-retries", "2"]):
            with pytest.raises(SystemExit) as exited:
                main(["serve", "net.txt", "index", *knob])
            assert exited.value.code == 2
            assert f"unrecognized arguments: {' '.join(knob)}" in capsys.readouterr().err


class TestReplayDeadline:
    def test_a_replay_after_a_respawn_gets_what_is_left_of_the_budget(self, setup):
        """The kill costs a backoff (50 ms for slot 0's first respawn)
        longer than the whole budget: the replay finds the budget spent
        and raises, where sending the original budget again answered
        late.  The respawned slot then serves as before."""
        _, engine = setup
        injector = FaultInjector().kill_worker_at(SERVING, 1)
        with ShardGroup.from_engine(engine, 2, fault_injector=injector) as group:
            assert backoff(1, SERVING) > 0.03
            t0 = time.perf_counter()
            with pytest.raises(DeadlineExceeded):
                group.knn(QUERIES[0], K, time_cap=0.03)
            assert time.perf_counter() - t0 >= backoff(1, SERVING)
            assert injector.fired("worker_kill") == 1
            assert (faults(group, "worker_crash"), faults(group, "respawn")) == (1, 1)
            assert ranked(group.knn(QUERIES[0], K)) == ranked(
                engine.knn(QUERIES[0], K, exact=True)
            )


class TestHangProofing:
    def test_dead_worker_raises_promptly_instead_of_hanging(self, setup):
        _, engine = setup
        group = make_group(engine)
        try:
            shard = SERVING
            worker = group.workers[shard]
            worker.process.kill()
            worker.process.join(5.0)
            t0 = time.monotonic()
            with pytest.raises(WorkerDied):
                worker.request(("ping",))
            assert time.monotonic() - t0 < 5.0
        finally:
            group.close()

    def test_close_with_dead_workers_does_not_hang(self, setup):
        _, engine = setup
        group = make_group(engine)
        for worker in group.workers.values():
            worker.process.kill()
        t0 = time.monotonic()
        group.close()
        assert time.monotonic() - t0 < 30.0
        group.close()  # idempotent

    def test_stop_on_dead_worker_is_quiet(self, setup):
        _, engine = setup
        group = make_group(engine)
        try:
            worker = next(iter(group.workers.values()))
            worker.kill()
            worker.stop()  # must not raise or hang
        finally:
            group.close()


class TestSupervisionPolicy:
    def test_backoff_is_deterministic_exponential_and_capped(self):
        assert (BACKOFF_BASE, BACKOFF_CAP, BACKOFF_JITTER) == (0.05, 2.0, 0.25)
        assert backoff(1, 0) == backoff(1, 0)
        for shard in range(4):
            delays = [backoff(n, shard) for n in range(1, 10)]
            # Grows until the cap, never past cap * (1 + jitter).
            assert all(d <= 2.0 * 1.25 + 1e-12 for d in delays)
            assert delays[1] > delays[0]
            assert 2.0 <= delays[-1]  # 0.05 * 2**8 is past the cap
        # Jitter de-syncs concurrent respawns of different shards.
        assert backoff(1, 0) != backoff(1, 1)
