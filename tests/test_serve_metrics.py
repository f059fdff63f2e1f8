"""ServerMetrics: percentiles, counters, and the bounded sample window."""

import pytest

from repro.obs import percentiles
from repro.query.stats import QueryStats
from repro.serve import ServerMetrics


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
    def test_counters_and_snapshot(self):
        m = ServerMetrics()
        m.record_completed("web", 0.010, 3, QueryStats(refinements=5))
        m.record_completed("web", 0.030, 0, QueryStats(refinements=2))
        m.record_shed()
        m.record_expired()
        m.record_failed()
        snap = m.snapshot(queue_depths={"web": 4}, in_flight=2)
        assert (snap.served, snap.shed, snap.expired, snap.failed) == (2, 1, 1, 1)
        assert snap.p50 == pytest.approx(0.020)
        assert snap.stats.refinements == 7
        assert snap.queue_depths == {"web": 4}
        assert snap.in_flight == 2
        assert "latency p50" in snap.format()

    def test_delay_percentile_per_client(self):
        m = ServerMetrics()
        for d in (0, 0, 32):
            m.record_completed("web", 0.001, d)
        m.record_completed("bulk", 0.5, 5000)
        assert m.delay_percentile("web", 50) == 0
        assert m.delay_percentile("bulk", 50) == 5000
        assert m.delay_percentile("absent", 95) == 0.0

    def test_sample_windows_are_bounded(self):
        """Flat memory over a long-lived server's lifetime."""
        m = ServerMetrics(window=10)
        for i in range(1000):
            m.record_completed("web", float(i), i)
        assert len(m.latencies) == 10
        assert len(m.sched_delays["web"]) == 10
        # exact lifetime counter, window-local percentiles
        assert m.served == 1000
        assert m.snapshot().p50 == pytest.approx(994.5)

    def test_window_validated(self):
        with pytest.raises(ValueError):
            ServerMetrics(window=0)

    def test_client_set_is_lru_bounded(self):
        """Satellite: ever-fresh client ids cannot grow memory."""
        m = ServerMetrics(max_clients=3)
        for i in range(10):
            m.record_completed(f"c{i}", 0.001, i)
        assert set(m.sched_delays) == {"c7", "c8", "c9"}
        # activity refreshes recency: touching the oldest keeps it
        m.record_completed("c7", 0.001, 1)
        m.record_completed("c10", 0.001, 1)
        assert set(m.sched_delays) == {"c9", "c7", "c10"}
        # lifetime counters are exact regardless of eviction
        assert m.served == 12
        # an evicted client reads like an absent one
        assert m.delay_percentile("c0", 50) == 0.0

    def test_max_clients_validated(self):
        with pytest.raises(ValueError):
            ServerMetrics(max_clients=0)

    def test_snapshot_percentiles_agree_with_single_calls(self):
        """Satellite micro-test: the one-sort snapshot matches the
        per-point reference for every quantile."""
        m = ServerMetrics()
        for i in range(17):
            m.record_completed("web", float((i * 7) % 17), 0)
        snap = m.snapshot()
        for got, q in ((snap.p50, 50), (snap.p95, 95), (snap.p99, 99)):
            assert [got] == pytest.approx(percentiles(m.latencies, (q,)))
