"""Tracer/Trace/Span: span trees, counters, and sinks."""

import io
import json

import pytest

from repro.obs import JsonlTraceSink, SlowQueryLog, Tracer
from repro.obs.registry import MetricsRegistry
from repro.query.stats import QueryStats


class FakeClock:
    """Deterministic, strictly advancing time source."""

    def __init__(self, step: float = 0.010) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


class TestSpanTree:
    def test_stack_parenting_nests_spans(self):
        tracer = Tracer(clock=FakeClock())
        trace = tracer.start_trace(id=1)
        with trace.span("execute") as outer:
            with trace.span("plan") as inner:
                pass
        trace.finish("ok")
        by_name = {s.name: s for s in trace.spans}
        assert by_name["execute"].parent == by_name["request"].sid
        assert by_name["plan"].parent == outer.sid
        assert inner.end is not None and inner.end >= inner.start

    def test_begin_parents_to_root_and_needs_explicit_close(self):
        tracer = Tracer(clock=FakeClock())
        trace = tracer.start_trace()
        wait = trace.begin("sched_wait")
        with trace.span("execute"):
            pass  # open `wait` must not capture stack children
        wait.close()
        trace.finish("ok")
        by_name = {s.name: s for s in trace.spans}
        assert by_name["sched_wait"].parent == by_name["request"].sid
        assert by_name["execute"].parent == by_name["request"].sid

    def test_counters_merge_and_survive_close(self):
        tracer = Tracer(clock=FakeClock())
        trace = tracer.start_trace()
        with trace.span("plan") as span:
            span.count(probes=3)
        span.count(probes=2, visits=1)  # post-close: totals known late
        trace.finish("ok")
        assert span.counters == {"probes": 5, "visits": 1}

    def test_add_stats_copies_nonzero_counters_only(self):
        tracer = Tracer(clock=FakeClock())
        trace = tracer.start_trace()
        with trace.span("oracle:silc") as span:
            span.add_stats(QueryStats(refinements=4, l_ops=9))
        assert span.counters == {"refinements": 4, "l_ops": 9}

    def test_exception_marks_error_label(self):
        tracer = Tracer(clock=FakeClock())
        trace = tracer.start_trace()
        with pytest.raises(RuntimeError):
            with trace.span("execute"):
                raise RuntimeError("boom")
        trace.finish("error")
        by_name = {s.name: s for s in trace.spans}
        assert by_name["execute"].labels["error"] == "RuntimeError"

    def test_finish_is_idempotent_and_closes_stragglers(self):
        tracer = Tracer(clock=FakeClock())
        trace = tracer.start_trace()
        open_span = trace.begin("sched_wait")  # never closed by hand
        trace.finish("cancelled")
        end = trace.t_end
        trace.finish("ok")  # no-op: status and t_end keep first values
        assert trace.status == "cancelled"
        assert trace.t_end == end
        assert open_span.end is not None
        assert tracer.finished == 1

    def test_to_dict_times_are_relative_and_clamped(self):
        tracer = Tracer(clock=FakeClock())
        trace = tracer.start_trace(id=7, client="web", kind="knn")
        with trace.span("execute"):
            pass
        trace.finish("ok")
        record = trace.to_dict()
        assert record["status"] == "ok"
        assert record["client"] == "web"
        for span in record["spans"]:
            assert 0.0 <= span["start"] <= span["end"]

    def test_adopt_remaps_sids_and_reparents_foreign_root(self):
        clock = FakeClock()
        worker_tracer = Tracer(clock=clock)
        wtrace = worker_tracer.start_trace()
        wtrace.spans[0].name = "worker"
        with wtrace.span("oracle:silc") as wspan:
            wspan.count(refinements=2)
        wtrace.finish("ok")

        tracer = Tracer(clock=clock)
        trace = tracer.start_trace()
        with trace.span("shard:1", shard=1) as shard_span:
            trace.adopt(wtrace.spans_absolute(), parent=shard_span)
        trace.finish("ok")

        by_name = {s.name: s for s in trace.spans}
        worker = by_name["worker"]
        oracle = by_name["oracle:silc"]
        assert worker.parent == shard_span.sid
        assert oracle.parent == worker.sid
        assert oracle.counters == {"refinements": 2}
        sids = [s.sid for s in trace.spans]
        assert len(sids) == len(set(sids))  # remapping avoided collisions

    def test_trace_ids_are_unique(self):
        tracer = Tracer(clock=FakeClock())
        a, b = tracer.start_trace(), tracer.start_trace()
        assert a.trace_id != b.trace_id


class TestTracerFeedsRegistry:
    def test_finished_trace_populates_registry(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry=registry, clock=FakeClock())
        trace = tracer.start_trace()
        with trace.span("oracle:silc", oracle="silc") as span:
            span.count(refinements=3)
        trace.finish("ok")
        assert registry.counter_value("traces_total", status="ok") == 1
        assert (
            registry.counter_value(
                "span_ops_total", stage="oracle", op="refinements"
            )
            == 3
        )
        snapshot = registry.snapshot()
        hist_names = {h["name"] for h in snapshot["histograms"]}
        assert {"request_seconds", "span_seconds"} <= hist_names


class TestSinks:
    def test_jsonl_sink_writes_one_line_per_record(self):
        stream = io.StringIO()
        sink = JsonlTraceSink(stream)
        sink.write({"trace": "t-1", "spans": []})
        sink.write({"trace": "t-2", "spans": []})
        lines = stream.getvalue().splitlines()
        assert [json.loads(x)["trace"] for x in lines] == ["t-1", "t-2"]
        assert sink.written == 2

    def test_jsonl_sink_appends_to_a_path(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceSink(path) as sink:
            sink.write({"trace": "t-1", "spans": []})
        with JsonlTraceSink(path) as sink:
            sink.write({"trace": "t-2", "spans": []})
        assert len(path.read_text().splitlines()) == 2

    def test_slow_log_keeps_only_crossers(self):
        stream = io.StringIO()
        log = SlowQueryLog(threshold=0.5, sink=JsonlTraceSink(stream))
        assert log.offer({"trace": "fast", "duration": 0.1}) is False
        assert log.offer({"trace": "slow1", "duration": 0.6}) is True
        log.offer({"trace": "slow2", "duration": 0.7})
        written = [json.loads(x)["trace"] for x in stream.getvalue().splitlines()]
        assert written == ["slow1", "slow2"]
        assert log.captured == 2

    def test_slow_log_tees_to_sink(self):
        stream = io.StringIO()
        log = SlowQueryLog(threshold=0.0, sink=JsonlTraceSink(stream))
        log.offer({"trace": "t-1", "duration": 0.2})
        assert json.loads(stream.getvalue())["trace"] == "t-1"

    def test_slow_log_validates_arguments(self):
        with pytest.raises(ValueError):
            SlowQueryLog(threshold=-1.0)
        # NaN passes a ``< 0`` check, and then every trace is "slow".
        with pytest.raises(ValueError, match="threshold"):
            SlowQueryLog(threshold=float("nan"))

    def test_tracer_routes_finished_traces_to_sink_and_slow_log(self):
        stream = io.StringIO()
        slow = SlowQueryLog(threshold=0.0)
        tracer = Tracer(
            sink=JsonlTraceSink(stream), slow_log=slow, clock=FakeClock()
        )
        trace = tracer.start_trace(id=1)
        trace.finish("ok")
        assert json.loads(stream.getvalue())["status"] == "ok"
        assert slow.captured == 1
