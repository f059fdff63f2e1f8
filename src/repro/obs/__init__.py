"""Observability layer: per-request tracing + a unified metrics registry.

This package sits *below* :mod:`repro.serve` in the import graph (the
serving stack imports it, never the reverse), so the tracer and
registry can be threaded through every layer -- server, scheduler,
engine, planner, shard router and worker processes -- without cycles.
"""

from repro.obs.registry import ENGINE_OPS, WINDOW, MetricsRegistry, percentiles
from repro.obs.report import (
    aggregate_stages,
    format_trace_report,
    load_trace_file,
    request_percentiles,
    stage_of,
)
from repro.obs.sinks import JsonlTraceSink, SlowQueryLog
from repro.obs.trace import (
    NULL_SPAN,
    NULL_TRACE,
    NullSpan,
    NullTrace,
    NullTracer,
    Span,
    Trace,
    Tracer,
)

__all__ = [
    "ENGINE_OPS",
    "WINDOW",
    "MetricsRegistry",
    "percentiles",
    "aggregate_stages",
    "format_trace_report",
    "load_trace_file",
    "request_percentiles",
    "stage_of",
    "JsonlTraceSink",
    "SlowQueryLog",
    "NULL_SPAN",
    "NULL_TRACE",
    "NullSpan",
    "NullTrace",
    "NullTracer",
    "Span",
    "Trace",
    "Tracer",
]
