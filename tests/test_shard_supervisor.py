"""Shard worker supervision: crash detection, respawn, replay, policies.

The acceptance bar (docs/ARCHITECTURE.md invariant): fault handling
never changes answers, only availability and latency.  A worker killed
mid-workload must yield, per policy, either the identical exact answer
(``respawn``/``failover``) or a typed error (``error``) -- never a
hang, never a partial or silently wrong result.
"""

import time

import pytest

from repro import ObjectIndex, SILCIndex, road_like_network
from repro.cli import main
from repro.datasets import random_vertex_objects
from repro.engine import QueryEngine
from repro.errors import ShardUnavailable, WorkerDied
from repro.faults import FaultInjector
from repro.shard import ShardGroup, SupervisionPolicy

NUM_SHARDS = 4
K = 3
#: The slot one sequential client is always served by (the dispatcher
#: lends the worker returned last, and slot 0 first).
SERVING = 0
#: Queries spread over the network; any of them goes to ``SERVING``.
QUERIES = (0, 17, 42, 99, 133)


def ranked(result):
    return [(round(n.distance, 9), n.oid) for n in result.neighbors]


@pytest.fixture(scope="module")
def setup():
    net = road_like_network(150, seed=5)
    index = SILCIndex.build(net)
    objects = random_vertex_objects(net, count=40, seed=7)
    object_index = ObjectIndex(net, objects, index.embedding)
    engine = QueryEngine(index, object_index)
    return net, engine


def make_group(engine, policy, injector=None, max_retries=2):
    return ShardGroup.from_engine(
        engine, NUM_SHARDS, on_failure=policy, max_retries=max_retries,
        fault_injector=injector,
    )


class TestRespawnPolicy:
    def test_kill_mid_workload_recovers_identical_answers(self, setup):
        _, engine = setup
        injector = FaultInjector()
        group = make_group(engine, "respawn", injector)
        try:
            shard = SERVING
            injector.kill_worker_at(shard, 2)
            queries = list(QUERIES)
            expected = [ranked(engine.knn(q, K, exact=True)) for q in queries]
            got = [ranked(group.knn(q, K)) for q in queries]
            assert got == expected
            assert injector.fired("worker_kill") == 1
            stats = group.supervisor.stats
            assert stats.worker_crashes >= 1
            assert stats.respawns >= 1
            assert stats.retries >= 1
            # The shard healed: a fresh worker answers its pings.
            assert group.health_check()[shard] is True
        finally:
            group.close()

    def test_externally_killed_worker_heals_on_next_query(self, setup):
        _, engine = setup
        group = make_group(engine, "respawn")
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
        group = make_group(engine, "respawn", injector, max_retries=1)
        try:
            shard = SERVING
            # Kill the original send AND the post-respawn replay.
            injector.kill_worker_at(shard, 1).kill_worker_at(shard, 2)
            query = QUERIES[0]
            result = group.knn(query, K)
            assert ranked(result) == ranked(engine.knn(query, K, exact=True))
            assert result.stats.extras.get("failover") is True
            assert group.supervisor.stats.failovers == 1
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
        group = ShardGroup.from_engine(mapped, 2, max_retries=1)
        try:
            assert group.directory == tmp_path / "index"
            other = road_like_network(net.num_vertices, seed=6)
            SILCIndex.build(other).save(tmp_path / "index")
            shard = SERVING
            group.workers[shard].kill()
            for query in QUERIES[:3]:
                # The parent still maps the files it loaded: the
                # failover answer is the original network's.
                result = group.knn(query, K)
                assert ranked(result) == ranked(engine.knn(query, K, exact=True))
                assert result.stats.extras.get("failover") is True
            assert group.supervisor.stats.respawn_failures >= 1
            assert group.supervisor.stats.respawns == 0
            replacement = group.supervisor.spawner(shard)
            with pytest.raises(RuntimeError, match="failed to start: CorruptIndexError: "
                               "index directory changed since the shard tier started"):
                replacement.ping()
            replacement.stop()
        finally:
            group.close()


class TestFailoverPolicy:
    def test_immediate_failover_identical_answers(self, setup):
        _, engine = setup
        injector = FaultInjector()
        group = make_group(engine, "failover", injector)
        try:
            shard = SERVING
            injector.kill_worker_at(shard, 1)
            query = QUERIES[0]
            result = group.knn(query, K)
            assert ranked(result) == ranked(engine.knn(query, K, exact=True))
            assert result.stats.extras.get("failover") is True
            assert group.supervisor.stats.failovers == 1
        finally:
            group.close()


class TestDegradePolicy:
    def test_serve_refuses_the_retired_degrade_policy(self, capsys):
        """A live worker holds every object, so there is no partial
        answer left to serve: ``degrade`` is not a policy any more."""
        with pytest.raises(SystemExit) as exited:
            main(["serve", "net.txt", "index", "--on-shard-failure", "degrade"])
        assert exited.value.code == 2
        assert "invalid choice: 'degrade'" in capsys.readouterr().err
        with pytest.raises(ValueError, match="on_failure"):
            SupervisionPolicy(on_failure="degrade")


class TestErrorPolicy:
    def test_error_policy_surfaces_shard_unavailable(self, setup):
        _, engine = setup
        injector = FaultInjector()
        group = make_group(engine, "error", injector)
        try:
            shard = SERVING
            injector.kill_worker_at(shard, 1)
            query = QUERIES[0]
            with pytest.raises(ShardUnavailable):
                group.knn(query, K)
        finally:
            group.close()


class TestHangProofing:
    def test_dead_worker_raises_promptly_instead_of_hanging(self, setup):
        _, engine = setup
        group = make_group(engine, "error")
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
        group = make_group(engine, "respawn")
        for worker in group.workers.values():
            worker.process.kill()
        t0 = time.monotonic()
        group.close()
        assert time.monotonic() - t0 < 30.0
        group.close()  # idempotent

    def test_stop_on_dead_worker_is_quiet(self, setup):
        _, engine = setup
        group = make_group(engine, "respawn")
        try:
            worker = next(iter(group.workers.values()))
            worker.kill()
            worker.stop()  # must not raise or hang
        finally:
            group.close()


class TestSupervisionPolicy:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="on_failure"):
            SupervisionPolicy(on_failure="panic")

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            SupervisionPolicy(max_retries=-1)

    def test_backoff_is_deterministic_exponential_and_capped(self):
        policy = SupervisionPolicy(
            backoff_base=0.1, backoff_cap=1.0, jitter=0.25
        )
        assert policy.backoff(1, 0) == policy.backoff(1, 0)
        for shard in range(4):
            delays = [policy.backoff(n, shard) for n in range(1, 8)]
            # Grows until the cap, never past cap * (1 + jitter).
            assert all(d <= 1.0 * 1.25 + 1e-12 for d in delays)
            assert delays[1] > delays[0]
        # Jitter de-syncs concurrent respawns of different shards.
        assert policy.backoff(1, 0) != policy.backoff(1, 1)
