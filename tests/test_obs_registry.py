"""MetricsRegistry: feeding, labels, merged snapshots -- and the
``stats`` reply of a served stack, into which every layer counts."""

import asyncio

import pytest

from repro.engine import QueryEngine
from repro.faults import FaultInjector
from repro.obs import WINDOW, MetricsRegistry, percentiles
from repro.oracle import CostConstants, QueryPlanner
from repro.serve import AdmissionController, AsyncEngine, Request, SILCServer


def by_key(samples):
    """``{(name, labels): value}`` of a snapshot's counters or gauges."""
    return {(s["name"], frozenset(s["labels"].items())): s["value"] for s in samples}


class TestPercentiles:
    def test_empty_returns_zero_per_point(self):
        assert percentiles([], (50.0, 95.0)) == [0.0, 0.0]

    def test_many_points_from_one_sample(self):
        p50, p95, p100 = percentiles(list(range(101)), (50.0, 95.0, 100.0))
        assert p50 == pytest.approx(50.0)
        assert p95 == pytest.approx(95.0)
        assert p100 == pytest.approx(100.0)

    def test_interpolates_between_samples(self):
        assert percentiles([0.0, 10.0], (50.0,))[0] == pytest.approx(5.0)

    def test_single_sample_answers_every_point(self):
        assert percentiles([7.0], (0.0, 50.0, 100.0)) == [7.0, 7.0, 7.0]

    def test_validates_every_point(self):
        with pytest.raises(ValueError):
            percentiles([1.0], (50.0, 101.0))

    def test_consumes_an_iterator_once(self):
        """The single-sort contract: one pass over a one-shot iterable."""
        values = (float(x) for x in (5.0, 1.0, 3.0))
        assert percentiles(values, (0.0, 100.0)) == [1.0, 5.0]


class TestFeeding:
    def test_inc_accumulates(self):
        reg = MetricsRegistry()
        reg.inc("hits", 2, stage="serve")
        reg.inc("hits", 3, stage="serve")
        assert reg.counter_value("hits", stage="serve") == 5

    def test_labels_distinguish_samples_order_insensitively(self):
        reg = MetricsRegistry()
        reg.inc("ops", 1, stage="plan", oracle="silc")
        reg.inc("ops", 1, oracle="silc", stage="plan")  # same sample
        reg.inc("ops", 1, stage="plan", oracle="labels")
        assert reg.counter_value("ops", stage="plan", oracle="silc") == 2
        assert reg.counter_value("ops", stage="plan", oracle="labels") == 1

    def test_histogram_window_is_bounded_but_count_exact(self):
        reg = MetricsRegistry()
        for i in range(WINDOW + 100):
            reg.observe("lat", float(i), stage="serve")
        snap = reg.snapshot()["histograms"][0]
        assert snap["count"] == WINDOW + 100
        assert snap["p50"] == pytest.approx(100 + (WINDOW - 1) / 2)  # the last WINDOW
        assert reg.histogram("lat", stage="serve")["p50"] == snap["p50"]


class TestSnapshotShape:
    def test_snapshot_is_sorted_and_json_shaped(self):
        reg = MetricsRegistry()
        reg.inc("b_total", 1, stage="x")
        reg.inc("a_total", 1, stage="x")
        reg.set_gauge("depth", 4, stage="x", client="web")
        reg.observe("lat", 0.5, stage="x")
        snap = reg.snapshot()
        assert [c["name"] for c in snap["counters"]] == ["a_total", "b_total"]
        assert snap["gauges"][0]["labels"] == {"client": "web", "stage": "x"}
        hist = snap["histograms"][0]
        assert hist["mean"] == hist["max"] == hist["p99"] == 0.5

    def test_merged_snapshot_sums_counters_by_key_and_polls_idempotently(self):
        """The ``stats`` reply is one merge: the counters of several
        registries summed by key; reading it again changes nothing."""
        server, shard = MetricsRegistry(), MetricsRegistry()
        server.inc("requests_total", 2, stage="serve", outcome="completed")
        shard.inc("requests_total", 3, outcome="completed", stage="serve")
        shard.inc("fault_events_total", 1, stage="shard", event="retry")
        merged = server.snapshot(shard)
        assert server.snapshot(shard) == merged
        assert [(c["name"], c["value"]) for c in merged["counters"]] == [
            ("fault_events_total", 1), ("requests_total", 5),
        ]
        assert server.counter_value("requests_total", stage="serve", outcome="completed") == 2


class TestAbsorption:
    """What each layer counts as it happens reaches the one merged
    snapshot the ``stats`` reply carries."""

    def test_absorb_server_snapshot(self, small_index, small_object_index):
        """Request outcomes, engine work and the poll-time gauges: three
        requests queued and one shed, polled before the first dispatch
        and again after the replies."""
        requests = [
            Request(id=i, client="web", kind="knn", queries=(q,), k=3)
            for i, q in enumerate((0, 5, 9), start=1)
        ]
        # costs more than the whole in-flight cap: shed
        requests.append(
            Request(id=4, client="bulk", kind="knn_batch", queries=tuple(range(20)), k=2)
        )

        async def go():
            async with AsyncEngine(QueryEngine(small_index, small_object_index)) as ae:
                server = SILCServer(ae, admission=AdmissionController(max_in_flight=10))
                async with server:
                    loop = asyncio.get_running_loop()
                    futures = [loop.create_future() for _ in requests]
                    for request, future in zip(requests, futures):
                        server.submit_nowait(request, future.set_result)
                    queued = server.registry_snapshot()  # before the pump's loop turn
                    replies = [await future for future in futures]
                    done = server.registry_snapshot()
                return replies, queued, done, server.snapshot().stats

        replies, queued, done, ops = asyncio.run(go())
        assert [r.status for r in replies] == ["ok", "ok", "ok", "rejected"]
        gauges = by_key(queued["gauges"])
        assert gauges[("in_flight", frozenset({("stage", "serve")}))] == 3
        assert gauges[("queue_depth", frozenset({("stage", "sched"), ("client", "web")}))] == 3
        counters = by_key(queued["counters"])
        assert counters[("requests_total", frozenset({("stage", "serve"), ("outcome", "shed")}))] == 1
        assert ("requests_total", frozenset({("stage", "serve"), ("outcome", "completed")})) not in counters

        counters = by_key(done["counters"])
        assert counters[("requests_total", frozenset({("stage", "serve"), ("outcome", "completed")}))] == 3
        assert counters[("requests_total", frozenset({("stage", "serve"), ("outcome", "shed")}))] == 1
        assert ops.refinements > 0
        assert (
            counters[("engine_ops_total", frozenset({("stage", "engine"), ("op", "refinements")}))]
            == ops.refinements
        )
        assert by_key(done["gauges"])[("in_flight", frozenset({("stage", "serve")}))] == 0
        [latency] = [h for h in done["histograms"] if h["name"] == "latency_seconds"]
        assert latency["count"] == 3

    def test_absorb_planner_and_router(self, small_index, small_object_index):
        """Planned picks (the planner's registry) and worker visits (the
        shard group's) in one
        snapshot: SILC requests go to a shard worker, ``auto`` ones to
        the planner, whose preloaded model always picks ``ine``."""
        engine = QueryEngine(small_index, small_object_index)
        engine.planner = QueryPlanner(engine.oracles, constants=CostConstants(
            op_model={"silc": (50.0, 5.0), "ine": (1.0, 1.0)},
            op_seconds={"silc": 1e-5, "ine": 1e-7},
        ))
        requests = [
            Request(id=1, client="web", kind="knn", queries=(0,), k=3, oracle="silc"),
            Request(id=2, client="bulk", kind="knn_batch", queries=(5, 9), k=2, oracle="silc"),
            Request(id=3, client="web", kind="knn_batch", queries=(17, 42, 101, 130), k=3,
                    oracle="auto"),
        ]

        async def go():
            async with AsyncEngine(engine, shards=2) as ae, SILCServer(ae) as server:
                replies = [await server.submit(r) for r in requests]
                return replies, server.registry_snapshot()

        replies, snap = asyncio.run(go())
        assert [r.status for r in replies] == ["ok"] * len(requests)
        counters = by_key(snap["counters"])

        def counted(name, **labels):
            return counters.get((name, frozenset(labels.items())), 0)

        assert counted("planner_decisions_total", stage="plan", oracle="ine") == 4
        assert counted("planner_decisions_total", stage="plan", oracle="silc") == 0
        assert counted("planner_calibrations_total", stage="plan") == 0
        assert counted("router_queries_total", stage="route") == 3
        assert counted("router_shards_total", stage="route", event="visited") == 3
        assert counted("router_candidates_total", stage="route") == 3 + 2 * 2


class TestStatsWire:
    def test_every_layer_counts_into_the_stats_reply(self, small_index, small_object_index):
        """Two shard workers, the serving one killed before its first
        request and before both replays, so that query answers on the
        unsharded engine; SILC and planned requests: the reply carries
        what each layer counted, exactly."""
        injector = FaultInjector().kill_worker_at(0, 1).kill_worker_at(0, 2).kill_worker_at(0, 3)
        requests = [
            Request(id=1, client="web", kind="knn", queries=(0,), k=3, oracle="silc"),
            Request(id=2, client="web", kind="knn", queries=(17,), k=3, oracle="silc"),
            Request(id=3, client="bulk", kind="knn_batch", queries=(5, 9, 23), k=2,
                    oracle="silc"),
            Request(id=4, client="web", kind="knn", queries=(42,), k=3, oracle="auto"),
            Request(id=5, client="bulk", kind="knn_batch", queries=(5, 9), k=2, oracle="auto"),
        ]

        async def go():
            engine = AsyncEngine(
                QueryEngine(small_index, small_object_index), shards=2,
                fault_injector=injector,
            )
            async with engine, SILCServer(engine) as server:
                replies = [await server.submit(r) for r in requests]
                stats = await server.submit(Request(id=6, client="ops", kind="stats"))
            return replies, stats.result["metrics"]

        replies, metrics = asyncio.run(go())
        assert [r.status for r in replies] == ["ok"] * len(requests)
        got = {
            (c["name"], frozenset(c["labels"].items())): c["value"]
            for c in metrics["counters"]
        }

        def counted(name, **labels):
            return got.get((name, frozenset(labels.items())), 0)

        assert counted("requests_total", stage="serve", outcome="completed") == 5
        # Five SILC queries reach the dispatcher: the first meets the
        # killed worker three times and fails over, its slot goes to the
        # bottom of the stack, and the other four are one visit each.
        assert counted("router_queries_total", stage="route") == 5
        assert counted("router_shards_total", stage="route", event="visited") == 4
        assert counted("router_candidates_total", stage="route") == 3 + 3 + 3 * 2
        assert [
            counted("fault_events_total", stage="shard", event=event)
            for event in ("worker_crash", "respawn", "retry", "failover")
        ] == [3, 2, 2, 1]
        planned = sum(v for (name, _), v in got.items() if name == "planner_decisions_total")
        assert planned == 1 + 2
        [latency] = [h for h in metrics["histograms"] if h["name"] == "latency_seconds"]
        assert (latency["labels"], latency["count"]) == ({"stage": "serve"}, 5)
