"""The server's metrics: percentiles, and its typed reading of the
registry it counts requests into as they end."""

import asyncio

import pytest

from repro.engine import QueryEngine
from repro.obs.registry import WINDOW, percentiles
from repro.obs.trace import Tracer
from repro.serve import AdmissionController, AsyncEngine, Request, SILCServer


def knn(rid, query, deadline=None):
    return Request(id=rid, client="web", kind="knn", queries=(query,), k=3, deadline=deadline)


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentiles([], (95,)) == [0.0]

    def test_single_value(self):
        assert percentiles([7.0], (50,)) == [7.0]

    def test_interpolates(self):
        assert percentiles([0.0, 10.0], (50,)) == pytest.approx([5.0])
        assert percentiles(list(range(101)), (95,)) == pytest.approx([95.0])

    def test_accepts_any_iterable(self):
        assert percentiles((x for x in (3.0, 1.0, 2.0)), (100,)) == [3.0]

    def test_validates_q(self):
        with pytest.raises(ValueError):
            percentiles([1.0], (101,))


class TestServerMetrics:
    def test_counters_and_snapshot(self, small_index, small_object_index):
        """Each outcome is counted once, as it happens, and read back
        typed."""
        ticks = iter(range(10_000))  # every clock read is a second later
        requests = [
            knn(1, 0),
            knn(2, 5),
            # costs more than the whole in-flight cap: shed
            Request(id=3, client="bulk", kind="knn_batch", queries=tuple(range(20)), k=2),
            knn(4, 9, deadline=0.5),  # past its deadline at first dispatch
            knn(5, 10**9),  # no such vertex
        ]

        async def go():
            async with AsyncEngine(QueryEngine(small_index, small_object_index)) as ae:
                server = SILCServer(
                    ae, admission=AdmissionController(max_in_flight=10),
                    clock=lambda: float(next(ticks)),
                )
                async with server:
                    responses = [await server.submit(r) for r in requests]
                return responses, server.snapshot()

        responses, snap = asyncio.run(go())
        assert [r.status for r in responses] == ["ok", "ok", "rejected", "expired", "error"]
        assert (snap.served, snap.shed, snap.expired, snap.failed) == (2, 1, 1, 1)
        assert snap.p50 > 0 and snap.stats.refinements > 0
        assert (snap.queue_depths, snap.in_flight) == ({}, 0)
        assert "latency p50" in snap.format()

    def test_untraced_is_no_tracer_and_a_registry_of_its_own(self):
        """Tracing off is ``tracer=None``, and the server still counts
        into a registry; a traced server counts into the tracer's."""
        untraced = SILCServer(engine=None)
        assert untraced.tracer is None
        untraced.registry.inc("requests_total", stage="serve", outcome="completed")
        assert untraced.snapshot().served == 1
        tracer = Tracer()
        assert SILCServer(engine=None, tracer=tracer).registry is tracer.registry

    def test_sample_windows_are_bounded(self):
        """Flat memory over a long-lived server's lifetime: latency
        percentiles read the last WINDOW requests, the count stays exact."""
        server = SILCServer(engine=None)  # the typed reading needs no engine
        registry = server.registry
        for i in range(WINDOW + 1000):
            registry.inc("requests_total", stage="serve", outcome="completed")
            registry.observe("latency_seconds", float(i), stage="serve")
        snap = server.snapshot()
        assert snap.served == WINDOW + 1000
        assert snap.p50 == pytest.approx(1000 + (WINDOW - 1) / 2)

    def test_snapshot_percentiles_agree_with_single_calls(self):
        """The one-sort snapshot matches the per-point reference for
        every quantile."""
        server = SILCServer(engine=None)
        latencies = [float((i * 7) % 17) for i in range(17)]
        for latency in latencies:
            server.registry.observe("latency_seconds", latency, stage="serve")
        snap = server.snapshot()
        for got, q in ((snap.p50, 50), (snap.p95, 95), (snap.p99, 99)):
            assert [got] == pytest.approx(percentiles(latencies, (q,)))
