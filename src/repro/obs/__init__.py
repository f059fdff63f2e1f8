"""Observability layer: per-request tracing + a unified metrics registry.

This package sits *below* :mod:`repro.serve` in the import graph (the
serving stack imports it, never the reverse), so the tracer and
registry can be threaded through every layer -- server, scheduler,
engine, planner, shard router and worker processes -- without cycles.
"""

from repro.obs.report import format_trace_report, load_trace_file
from repro.obs.sinks import JsonlTraceSink, SlowQueryLog
from repro.obs.trace import Tracer

__all__ = [
    "format_trace_report",
    "load_trace_file",
    "JsonlTraceSink",
    "SlowQueryLog",
    "Tracer",
]
