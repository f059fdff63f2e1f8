"""trace-report: strict loading, per-stage aggregation, rendering."""

import json

import pytest

from repro.obs import JsonlTraceSink, Tracer, format_trace_report, load_trace_file
from repro.obs.report import aggregate_stages, request_percentiles, stage_of


def write_lines(path, records):
    with open(path, "w") as f:
        for record in records:
            f.write(json.dumps(record) + "\n")


def trace_record(trace_id="t-1", status="ok", duration=0.01, spans=None):
    if spans is None:
        spans = [
            {"sid": 0, "parent": None, "name": "request", "start": 0.0,
             "end": duration},
            {"sid": 1, "parent": 0, "name": "oracle:silc", "start": 0.001,
             "end": 0.004, "counters": {"refinements": 2}},
        ]
    return {"trace": trace_id, "status": status, "duration": duration,
            "spans": spans}


class TestStageOf:
    def test_strips_qualifier(self):
        assert stage_of("oracle:silc") == "oracle"
        assert stage_of("shard:3") == "shard"
        assert stage_of("plan") == "plan"


class TestLoadTraceFile:
    def test_round_trips_real_tracer_output(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceSink(path) as sink:
            tracer = Tracer(sink=sink)
            for i in range(3):
                trace = tracer.start_trace(id=i, client="web", kind="knn")
                with trace.span("execute", kind="knn"):
                    with trace.span("oracle:silc", oracle="silc") as span:
                        span.count(refinements=i)
                trace.finish("ok")
        traces = load_trace_file(path)
        assert len(traces) == 3
        stages = aggregate_stages(traces)
        assert stages["oracle"]["count"] == 3
        assert stages["oracle"]["counters"]["refinements"] == 3  # 0+1+2

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(json.dumps(trace_record()) + "\n\n\n")
        assert len(load_trace_file(path)) == 1

    @pytest.mark.parametrize(
        "mutate,message",
        [
            (lambda r: r.pop("spans"), "missing key"),
            (lambda r: r.__setitem__("spans", []), "no spans"),
            (lambda r: r["spans"][0].pop("name"), "missing key"),
            (lambda r: r["spans"][0].__setitem__("name", ""), "empty name"),
            (lambda r: r["spans"][1].__setitem__("sid", 0), "duplicated"),
            (lambda r: r["spans"][1].__setitem__("parent", 99), "unresolvable"),
            (lambda r: r["spans"][1].__setitem__("start", -0.5), "bad times"),
            (lambda r: r["spans"][1].__setitem__("end", 0.0), "bad times"),
        ],
    )
    def test_malformed_spans_raise_naming_the_line(self, tmp_path, mutate, message):
        record = trace_record()
        mutate(record)
        path = tmp_path / "trace.jsonl"
        write_lines(path, [trace_record(), record])
        with pytest.raises(ValueError, match=message) as err:
            load_trace_file(path)
        assert ":2" in str(err.value)  # the offending line is named

    def test_invalid_json_raises(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_trace_file(path)

    def test_non_object_line_raises(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(ValueError, match="not an object"):
            load_trace_file(path)


class TestAggregation:
    def test_root_request_span_is_excluded_from_stages(self):
        stages = aggregate_stages([trace_record()])
        assert "request" not in stages
        assert set(stages) == {"oracle"}

    def test_request_percentiles_over_durations(self):
        traces = [trace_record(duration=d) for d in (0.010, 0.020, 0.030)]
        p50, p95, p99 = request_percentiles(traces)
        assert p50 == pytest.approx(0.020)
        assert p95 == pytest.approx(0.029)
        assert p99 == pytest.approx(0.0298)


class TestFormatting:
    def test_report_renders_stages_and_counted_ops(self):
        text = format_trace_report([trace_record(), trace_record("t-2")])
        assert "traces: 2 (ok=2)" in text
        assert "oracle" in text
        assert "refinements=4" in text
        assert "p95_ms" in text

    def test_empty_input(self):
        assert format_trace_report([]) == "no traces"
