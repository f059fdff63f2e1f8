"""Aggregate a JSON-lines trace file into a per-stage breakdown.

``repro trace-report`` answers *where does the time go* for a serving
run: per span stage (``read``, ``admission``, ``sched_wait``, ``plan``,
``oracle``, ``shard``, ``execute``, ``worker``, ``reply``) it renders count,
total/mean time and latency percentiles, plus the counted operations
accumulated on those spans -- the same units the paper's figures and
the repo's benchmarks use.  Whether a change moved serving latency is
``python3 bench/run.py --compare``'s call; this report only explains a
run.

Loading is strict: every line is validated (span ids unique and
resolvable, times sane, names non-empty) and a malformed line raises
:class:`ValueError` naming it, so CI fails loudly on corrupt traces.
"""

from __future__ import annotations

import json

from repro.obs.registry import percentiles

_REQUIRED_TRACE_KEYS = ("trace", "status", "duration", "spans")
_REQUIRED_SPAN_KEYS = ("sid", "parent", "name", "start", "end")


def _validate_trace(record: dict, where: str) -> None:
    for key in _REQUIRED_TRACE_KEYS:
        if key not in record:
            raise ValueError(f"{where}: trace record missing key {key!r}")
    if not isinstance(record["spans"], list) or not record["spans"]:
        raise ValueError(f"{where}: trace has no spans")
    sids = set()
    for span in record["spans"]:
        if not isinstance(span, dict):
            raise ValueError(f"{where}: span is not an object")
        for key in _REQUIRED_SPAN_KEYS:
            if key not in span:
                raise ValueError(f"{where}: span missing key {key!r}")
        sid = span["sid"]
        if not isinstance(sid, int) or sid in sids:
            raise ValueError(f"{where}: span id {sid!r} duplicated or invalid")
        sids.add(sid)
        if not span["name"]:
            raise ValueError(f"{where}: span has an empty name")
        start, end = span["start"], span["end"]
        if not 0.0 <= start <= end:
            raise ValueError(
                f"{where}: span {span['name']!r} has bad times "
                f"start={start!r} end={end!r}"
            )
    for span in record["spans"]:
        parent = span["parent"]
        if parent is not None and parent not in sids:
            raise ValueError(
                f"{where}: span {span['name']!r} has unresolvable "
                f"parent {parent!r}"
            )


def load_trace_file(path) -> list[dict]:
    """Parse + validate a JSON-lines trace file; raise on any bad line."""
    traces = []
    with open(path, encoding="utf-8") as stream:
        for lineno, line in enumerate(stream, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{where}: not valid JSON ({exc})") from exc
            if not isinstance(record, dict):
                raise ValueError(f"{where}: trace record is not an object")
            _validate_trace(record, where)
            traces.append(record)
    return traces


def stage_of(name: str) -> str:
    """Map a span name to its stage (``oracle:silc`` -> ``oracle``)."""
    return name.split(":", 1)[0]


def aggregate_stages(traces) -> dict[str, dict]:
    """Per-stage durations + counted ops across every span of every trace."""
    stages: dict[str, dict] = {}
    for trace in traces:
        for span in trace["spans"]:
            if span["sid"] == 0 and span["name"] == "request":
                continue  # request totals are reported separately
            stage = stage_of(span["name"])
            bucket = stages.setdefault(
                stage, {"count": 0, "durations": [], "counters": {}}
            )
            bucket["count"] += 1
            bucket["durations"].append(span["end"] - span["start"])
            for op, value in (span.get("counters") or {}).items():
                bucket["counters"][op] = bucket["counters"].get(op, 0) + value
    return stages


def request_percentiles(traces) -> tuple[float, float, float]:
    """(p50, p95, p99) of end-to-end request durations, in seconds."""
    durations = [t["duration"] for t in traces]
    p50, p95, p99 = percentiles(durations, (50.0, 95.0, 99.0))
    return p50, p95, p99


def _ms(seconds: float) -> str:
    return f"{seconds * 1000.0:.2f}"


def format_trace_report(traces) -> str:
    """Render the per-stage latency/counted-op breakdown table."""
    if not traces:
        return "no traces"
    lines = []
    p50, p95, p99 = request_percentiles(traces)
    statuses: dict[str, int] = {}
    for trace in traces:
        statuses[trace["status"]] = statuses.get(trace["status"], 0) + 1
    status_text = ", ".join(
        f"{status}={count}" for status, count in sorted(statuses.items())
    )
    lines.append(
        f"traces: {len(traces)} ({status_text})  "
        f"latency ms p50={_ms(p50)} p95={_ms(p95)} p99={_ms(p99)}"
    )
    lines.append("")
    stages = aggregate_stages(traces)
    header = (
        f"{'stage':<12} {'spans':>6} {'total_ms':>10} {'mean_ms':>9} "
        f"{'p50_ms':>9} {'p95_ms':>9} {'p99_ms':>9}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    order = sorted(
        stages.items(), key=lambda item: -sum(item[1]["durations"])
    )
    for stage, bucket in order:
        total = sum(bucket["durations"])
        mean = total / bucket["count"]
        s50, s95, s99 = percentiles(bucket["durations"], (50.0, 95.0, 99.0))
        lines.append(
            f"{stage:<12} {bucket['count']:>6} {_ms(total):>10} "
            f"{_ms(mean):>9} {_ms(s50):>9} {_ms(s95):>9} {_ms(s99):>9}"
        )
    op_rows = [
        (stage, bucket["counters"])
        for stage, bucket in sorted(stages.items())
        if bucket["counters"]
    ]
    if op_rows:
        lines.append("")
        lines.append("counted ops per stage:")
        for stage, counters in op_rows:
            ops = "  ".join(
                f"{op}={int(value)}" for op, value in sorted(counters.items())
            )
            lines.append(f"  {stage:<12} {ops}")
    return "\n".join(lines)
