"""MetricsRegistry: feeding semantics, labels, absorption, snapshots."""

import pytest

from repro.obs import MetricsRegistry, percentiles
from repro.oracle.planner import PlannerStats
from repro.query.stats import QueryStats
from repro.serve.metrics import ServerMetrics
from repro.shard.router import RouterStats


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

    def test_set_counter_assigns_absolutely(self):
        """Absorption may poll any number of times without double count."""
        reg = MetricsRegistry()
        for _ in range(3):
            reg.set_counter("requests_total", 7, stage="serve")
        assert reg.counter_value("requests_total", stage="serve") == 7

    def test_labels_distinguish_samples_order_insensitively(self):
        reg = MetricsRegistry()
        reg.inc("ops", 1, stage="plan", oracle="silc")
        reg.inc("ops", 1, oracle="silc", stage="plan")  # same sample
        reg.inc("ops", 1, stage="plan", oracle="labels")
        assert reg.counter_value("ops", stage="plan", oracle="silc") == 2
        assert reg.counter_value("ops", stage="plan", oracle="labels") == 1

    def test_histogram_window_is_bounded_but_count_exact(self):
        reg = MetricsRegistry(window=8)
        for i in range(100):
            reg.observe("lat", float(i), stage="serve")
        snap = reg.snapshot()["histograms"][0]
        assert snap["count"] == 100
        assert snap["p50"] == pytest.approx(95.5)  # window = last 8

    def test_window_validated(self):
        with pytest.raises(ValueError):
            MetricsRegistry(window=0)


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


class TestAbsorption:
    def test_absorb_server_snapshot(self):
        metrics = ServerMetrics()
        metrics.record_completed("web", 0.010, 2, QueryStats(refinements=5))
        metrics.record_shed()
        reg = MetricsRegistry()
        reg.absorb_server(metrics.snapshot(queue_depths={"web": 3}, in_flight=1))
        assert (
            reg.counter_value("requests_total", stage="serve", outcome="completed")
            == 1
        )
        assert (
            reg.counter_value("requests_total", stage="serve", outcome="shed") == 1
        )
        assert (
            reg.counter_value("engine_ops_total", stage="engine", op="refinements")
            == 5
        )
        gauges = {
            (g["name"], tuple(sorted(g["labels"].items()))): g["value"]
            for g in reg.snapshot()["gauges"]
        }
        assert gauges[("in_flight", (("stage", "serve"),))] == 1
        assert (
            gauges[("queue_depth", (("client", "web"), ("stage", "sched")))] == 3
        )

    def test_absorb_planner_and_router(self):
        reg = MetricsRegistry()
        planner = PlannerStats()
        planner.decisions["silc"] = 4
        planner.forced = 1
        reg.absorb_planner(planner)
        reg.absorb_router(RouterStats(queries=3, shards_visited=2, candidates=5))
        assert (
            reg.counter_value(
                "planner_decisions_total", stage="plan", oracle="silc"
            )
            == 4
        )
        assert reg.counter_value("router_queries_total", stage="route") == 3
        assert (
            reg.counter_value("router_shards_total", stage="route", event="visited")
            == 2
        )
        assert reg.counter_value("router_candidates_total", stage="route") == 5
