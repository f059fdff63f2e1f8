"""Shard worker supervision: crash detection, respawn, replay, failover.

The acceptance bar (docs/ARCHITECTURE.md invariant): fault handling
never changes answers, only latency.  A worker killed mid-workload must
yield the identical exact answer -- replayed on a respawned worker, or
answered on the unsharded engine once the slot stays down -- never a
hang, never a partial or silently wrong result, never a result past
its deadline.
"""

import contextlib
import os
import pickle
import select
import signal
import socket
import subprocess
import sys
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


class TestFraming:
    """A message is one length-prefixed frame on the pipe's descriptor:
    a worker that dies or stalls between a frame's header and its body
    is found dead or silent, never waited on, and a frame larger than
    the pipe holds arrives whole."""

    @staticmethod
    def header_then(monkeypatch, act, marker=None):
        """Make a worker write its next ``ok`` reply's header, then
        ``act()`` before the body; with ``marker``, only the first
        worker to get there (a respawned one answers normally)."""
        from repro.shard import worker as worker_module

        parent, real = os.getpid(), worker_module._send_frame

        def send(fd, message):
            if os.getpid() != parent and message[0] == "ok" and not (marker and marker.exists()):
                if marker:
                    marker.touch()
                body = pickle.dumps(message, 5)
                os.write(fd, worker_module._HEADER.pack(len(body)))
                act()
            real(fd, message)

        monkeypatch.setattr(worker_module, "_send_frame", send)

    def test_a_worker_dead_between_header_and_body_is_respawned_and_replayed(
        self, setup, monkeypatch, tmp_path
    ):
        _, engine = setup
        self.header_then(monkeypatch, lambda: os._exit(3), marker=tmp_path / "died")
        group = make_group(engine)
        try:
            for query in QUERIES:
                assert ranked(group.knn(query, K)) == ranked(engine.knn(query, K, exact=True))
            assert (tmp_path / "died").exists()
            assert (faults(group, "worker_crash"), faults(group, "respawn")) == (1, 1)
            assert faults(group, "failover") == 0
        finally:
            group.close()

    def test_a_worker_silent_before_or_inside_a_frame_times_out(self, setup, monkeypatch):
        _, engine = setup
        self.header_then(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGSTOP))
        group = make_group(engine)
        before, inside = group.workers[0], group.workers[1]
        try:
            os.kill(before.process.pid, signal.SIGSTOP)  # silent before the reply
            for worker, message in ((before, ("ping",)), (inside, ("knn", 0, K, "knn", False, None, True))):
                t0 = time.monotonic()
                with pytest.raises(WorkerDied, match="unresponsive"):
                    worker.request(message, timeout=0.2)
                assert 0.2 <= time.monotonic() - t0 < 5.0
                assert worker.process.is_alive()
        finally:
            for worker in (before, inside):
                worker.kill()  # a stopped process takes SIGKILL only
            group.close()

    def test_a_frame_larger_than_the_pipe_arrives_whole(self, setup, monkeypatch):
        """A 4 MB request kind comes back inside the worker's error reply:
        a frame many times the socket's buffers, both ways."""
        from repro.shard import worker as worker_module

        _, engine = setup
        group = make_group(engine)
        sent, real = [], worker_module._send_frame
        monkeypatch.setattr(
            worker_module, "_send_frame",
            lambda fd, message: (sent.append(len(pickle.dumps(message, 5))), real(fd, message))[1],
        )
        try:
            worker = group.workers[0]
            with socket.socket(fileno=os.dup(worker.conn.fileno())) as pipe:
                buffers = pipe.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF) + pipe.getsockopt(
                    socket.SOL_SOCKET, socket.SO_RCVBUF
                )
            kind = "x" * (4 << 20)
            assert len(kind) > 4 * buffers
            with pytest.raises(RuntimeError) as raised:
                worker.request((kind,))
            assert str(raised.value) == f"unknown request kind: {kind!r}"
            assert sent[0] > 4 * buffers
            assert worker.ping() == 0
            k = len(engine.object_index.objects)
            assert ranked(group.knn(0, k)) == ranked(engine.knn(0, k, exact=True))
        finally:
            group.close()


#: A parent that starts a 2-shard group, prints its workers' pids and
#: SIGKILLs itself: no ``close()``, no ``stop()``.
_ORPHANING_PARENT = """
import os, signal, sys
from repro import ObjectIndex, SILCIndex, road_like_network
from repro.datasets import random_vertex_objects
from repro.engine import QueryEngine
from repro.shard import ShardGroup

net = road_like_network(60, seed=1)
SILCIndex.build(net).save(sys.argv[1])
index = SILCIndex.load(sys.argv[1], net, mmap=True)  # served in place
objects = ObjectIndex(net, random_vertex_objects(net, count=10, seed=1), index.embedding)
group = ShardGroup.from_engine(QueryEngine(index, objects), 2)
print(*(worker.process.pid for worker in group.workers.values()), flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process (an unreaped zombie has exited)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
def test_workers_exit_when_their_parent_is_killed(tmp_path):
    """A parent killed without stopping its group: both workers exit
    within 10 s, and the parent's stdout, which they inherited, reaches
    EOF (a command waiting on it returns)."""
    parent = subprocess.Popen(
        [sys.executable, "-c", _ORPHANING_PARENT, str(tmp_path / "index")],
        stdout=subprocess.PIPE, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    pids: list[int] = []
    try:
        pids = [int(pid) for pid in parent.stdout.readline().split()]
        assert len(pids) == 2
        assert parent.wait(timeout=30) == -signal.SIGKILL
        deadline = time.monotonic() + 10.0
        while True:  # EOF once no worker holds the pipe
            ready, _, _ = select.select([parent.stdout], [], [], max(0.0, deadline - time.monotonic()))
            assert ready, "a worker still holds the stdout"
            if not parent.stdout.read1(4096):
                break
        while any(_running(pid) for pid in pids):
            assert time.monotonic() < deadline, "a worker outlived its parent by 10 s"
            time.sleep(0.05)
    finally:
        for pid in pids:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        parent.kill()
        parent.wait()
        parent.stdout.close()
