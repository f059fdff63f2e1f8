"""End-to-end deadline enforcement: budgets cap execution, not just
queueing.

A request's ``deadline`` used to be checked only at dispatch; a query
that expired *mid-execution* still ran to completion and was delivered
late.  Now the remaining budget rides from the server through
:class:`~repro.serve.engine.AsyncEngine` into the search loops, which
raise :class:`~repro.errors.DeadlineExceeded` the moment it runs out
-- surfaced to the client as ``Expired`` with ``aborted=True``.
"""

import asyncio
import itertools
import time

import pytest

from repro.engine import QueryEngine
from repro.errors import DeadlineExceeded
from repro.faults import FaultInjector
from repro.obs.trace import Tracer
from repro.query import best_first_knn, bestfirst
from repro.serve import AsyncEngine, FairScheduler, Request, SILCServer
from repro.serve.protocol import (
    Completed,
    Expired,
    Failed,
    response_to_dict,
)


@pytest.fixture()
def engine(small_index, small_object_index):
    return QueryEngine(small_index, small_object_index, cache_fraction=0.05)


class TestSearchLevelBudget:
    def test_zero_budget_expires_before_searching(
        self, small_index, small_object_index
    ):
        with pytest.raises(DeadlineExceeded):
            best_first_knn(small_index, small_object_index, 0, 3, time_budget=0.0)

    def test_generous_budget_does_not_change_the_answer(
        self, small_index, small_object_index
    ):
        free = best_first_knn(small_index, small_object_index, 7, 5, exact=True)
        capped = best_first_knn(
            small_index, small_object_index, 7, 5, exact=True, time_budget=60.0
        )
        assert capped.ids() == free.ids()


class TestEngineLevelBudget:
    def test_knn_time_cap(self, engine):
        with pytest.raises(DeadlineExceeded):
            engine.knn(0, 3, time_cap=0.0)
        assert engine.knn(0, 3, time_cap=60.0).ids() == engine.knn(0, 3).ids()

    def test_batch_budget_spans_the_whole_batch(self, engine):
        with pytest.raises(DeadlineExceeded):
            engine.knn_batch(range(10), 3, time_cap=0.0)
        capped = engine.knn_batch(range(10), 3, time_cap=60.0)
        assert [r.ids() for r in capped] == [r.ids() for r in engine.knn_batch(range(10), 3)]


class StallingEngine:
    """A sync engine whose every kNN takes ``delay`` seconds and
    honours ``time_cap`` exactly as the real search loops do."""

    oracle = "silc"
    storage = None

    def __init__(self, inner: QueryEngine, delay: float) -> None:
        self.inner = inner
        self.delay = delay

    def knn(self, query, k, **kwargs):
        time_cap = kwargs.pop("time_cap", None)
        time.sleep(self.delay)
        if time_cap is not None and self.delay >= time_cap:
            raise DeadlineExceeded("stalled past the execution budget")
        return self.inner.knn(query, k, **kwargs)

    def knn_batch(self, queries, k, **kwargs):
        time_cap = kwargs.pop("time_cap", None)
        time.sleep(self.delay)
        if time_cap is not None and self.delay >= time_cap:
            raise DeadlineExceeded("stalled past the execution budget")
        return self.inner.knn_batch(queries, k, **kwargs)


def serve_one(request, sync_engine):
    async def go():
        async with AsyncEngine(sync_engine) as ae:
            server = SILCServer(ae)
            async with server:
                response = await server.submit(request)
            return response, server.snapshot()

    return asyncio.run(go())


class TestServerDeadline:
    def test_mid_execution_expiry_returns_aborted_expired(self, engine):
        slow = StallingEngine(engine, delay=0.2)
        request = Request(
            id=1, client="web", kind="knn", queries=(0,), k=3, deadline=0.1
        )
        response, snapshot = serve_one(request, slow)
        assert isinstance(response, Expired)
        assert response.aborted is True
        assert response.waited >= 0.2  # execution time counted, not late-delivered
        assert snapshot.expired == 1
        assert snapshot.deadline_aborts == 1

    def test_deadline_met_completes_normally(self, engine):
        slow = StallingEngine(engine, delay=0.01)
        request = Request(
            id=2, client="web", kind="knn", queries=(0,), k=3, deadline=30.0
        )
        response, snapshot = serve_one(request, slow)
        assert isinstance(response, Completed)
        assert snapshot.deadline_aborts == 0

    def test_queue_expiry_is_not_flagged_aborted(self, engine):
        """A request that expired while *queued* keeps the legacy
        shape: Expired with aborted=False (nothing was cut short)."""
        async def go():
            async with AsyncEngine(engine) as ae:
                server = SILCServer(ae, clock=time.monotonic)
                async with server:
                    request = Request(
                        id=3, client="web", kind="knn", queries=(0,), k=3,
                        deadline=1e-9,
                    )
                    # Any real scheduling gap exceeds a nanosecond.
                    return await server.submit(request)

        response = asyncio.run(go())
        assert isinstance(response, Expired)
        assert response.aborted is False


    def test_a_budget_that_dies_in_a_later_chunk_aborts_the_batch(self, engine):
        """Each chunk's cap is what the chunks before it left; the chunk
        that overruns it ends the request and the rest never run."""
        slow = StallingEngine(engine, delay=0.06)
        calls = []
        stalling = slow.knn_batch
        slow.knn_batch = lambda queries, k, **kw: calls.append(queries) or stalling(queries, k, **kw)

        async def go():
            async with AsyncEngine(slow) as ae:
                server = SILCServer(ae, scheduler=FairScheduler(chunk_size=2))
                async with server:
                    response = await server.submit(Request(
                        id=4, client="bulk", kind="knn_batch",
                        queries=tuple(range(6)), k=2, deadline=0.1,
                    ))
                return response, server.snapshot()

        response, snapshot = asyncio.run(go())
        assert isinstance(response, Expired) and response.aborted is True
        assert calls == [(0, 1), (2, 3)]
        assert (snapshot.deadline_aborts, snapshot.in_flight, snapshot.queue_depths) == (1, 0, {})

    def test_a_query_error_comes_back_in_the_engines_own_words(self, engine):
        for request, call in (
            (Request(id=5, client="web", kind="knn", queries=(10**9,), k=3),
             lambda: engine.knn(10**9, 3, exact=True)),
            (Request(id=6, client="web", kind="path", queries=(0, 10**9)),
             lambda: engine.index.route(0, 10**9)),
        ):
            with pytest.raises(Exception) as raised:  # noqa: PT011 - whatever it is, verbatim
                call()
            response, snapshot = serve_one(request, engine)
            assert isinstance(response, Failed)
            assert response.error == f"{type(raised.value).__name__}: {raised.value}"
            assert (snapshot.failed, snapshot.in_flight) == (1, 0)


class TestTheBudgetReachesTheSearch:
    """A deadline that runs out inside the search, wherever the search
    runs: in process, in a shard worker, and on the unsharded engine a
    slot fails over to once its worker stays down.

    ``counted_clock`` steps 1000 s per reading, patched before any
    worker forks, so the search's first deadline check finds a 100 s
    budget spent -- if every hop from the server to the kernel forwarded
    it.  A hop that drops it lets the search finish: ``ok``, not
    ``Expired(aborted=True)``."""

    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize("kind", ["knn", "knn_batch"])
    @pytest.mark.parametrize("tier", ["local", "shards", "failover"])
    def test_expires_inside_the_search(self, engine, monkeypatch, tier, kind, traced):
        from repro.shard.worker import MAX_RETRIES

        readings = itertools.count(0.0, 1000.0)
        monkeypatch.setattr(bestfirst, "counted_clock", lambda: next(readings))
        injector = None
        if tier == "failover":  # slot 0 dies on every attempt
            injector = FaultInjector()
            for nth in range(1, MAX_RETRIES + 2):
                injector.kill_worker_at(0, nth)
        queries = (7, 11) if kind == "knn_batch" else (7,)
        request = Request(id=1, client="web", kind=kind, queries=queries, k=3, deadline=100.0)

        async def go():
            shards = 1 if tier == "local" else 2
            async with AsyncEngine(engine, shards=shards, fault_injector=injector) as ae:
                async with SILCServer(ae, tracer=Tracer() if traced else None) as server:
                    return await server.submit(request)

        response = asyncio.run(asyncio.wait_for(go(), 30.0))
        assert isinstance(response, Expired) and response.aborted, response
        if injector is not None:
            assert injector.fired("worker_kill") == MAX_RETRIES + 1


class TestProtocolFlags:
    def test_aborted_serializes_only_when_set(self):
        plain = response_to_dict(Expired(id=1, client="c", waited=0.5))
        assert "aborted" not in plain
        aborted = response_to_dict(
            Expired(id=1, client="c", waited=0.5, aborted=True)
        )
        assert aborted["aborted"] is True

        ok = response_to_dict(
            Completed(id=2, client="c", result={}, latency=0.1, sched_delay=0)
        )
        assert set(ok) == {"id", "client", "status", "latency", "sched_delay"}


class TestShardTierDeadline:
    def test_router_budget_expires_and_never_returns_late(
        self, engine, monkeypatch
    ):
        from repro.shard import ShardGroup

        group = ShardGroup.from_engine(engine, 2)
        try:
            with pytest.raises(DeadlineExceeded):
                group.knn(0, 3, time_cap=1e-9)
            generous = group.knn(0, 3, time_cap=60.0)
            assert generous.ids() == group.knn(0, 3).ids()
            with pytest.raises(DeadlineExceeded):
                group.knn_batch(range(5), 3, time_cap=1e-9)
            # A budget that dies *inside* a batch: both tiers count it
            # down in the one loop, so they fail with the same words.
            assert self.expire_in_batch(monkeypatch, group) == (
                self.expire_in_batch(monkeypatch, engine)
            ) == "batch exceeded its 100.0000s budget after 2 of its queries"
        finally:
            group.close()

    def test_a_replay_past_the_deadline_is_expired_not_late(self, engine, monkeypatch):
        """The serving worker killed before its first request, under a
        deadline shorter than the respawn backoff: the replay finds the
        budget spent, so the client gets ``Expired`` with
        ``aborted=True``, not a late ``ok``.

        The clocks move only by the backoff's sleep, whatever the host's
        speed: the server's reads 0.0 (no time queued), and the shard
        tier's ``perf_counter`` advances by exactly what ``sleep`` is
        asked for.  So the request always reaches the worker with its
        whole budget, and the replay always finds it spent."""
        import types

        from repro.faults import FaultInjector
        from repro.shard import worker
        from repro.shard.worker import backoff

        slept = [0.0]

        def sleep(seconds):
            slept[0] += seconds
            time.sleep(seconds)

        monkeypatch.setattr(worker, "time", types.SimpleNamespace(
            perf_counter=lambda: slept[0], sleep=sleep, monotonic=time.monotonic,
        ))
        injector = FaultInjector().kill_worker_at(0, 1)
        request = Request(id=1, client="web", kind="knn", queries=(0,), k=3, deadline=0.03)
        assert backoff(1, 0) > request.deadline

        async def go():
            async with AsyncEngine(engine, shards=2, fault_injector=injector) as ae:
                async with SILCServer(ae, clock=lambda: 0.0) as server:
                    return await server.submit(request)

        response = asyncio.run(go())
        assert isinstance(response, Expired)
        assert response.aborted is True
        assert injector.fired("worker_kill") == 1

    @staticmethod
    def expire_in_batch(monkeypatch, target) -> str:
        """Run a 5-query batch under a 100 s cap on a clock that jumps
        40 s per reading: the third query finds the budget spent."""
        import repro.engine

        readings = iter(range(0, 4000, 40))
        monkeypatch.setattr(repro.engine, "perf_counter", lambda: next(readings))
        with pytest.raises(DeadlineExceeded) as caught:
            target.knn_batch(range(5), 3, time_cap=100.0)
        return str(caught.value)
